// Package queue distributes experiment job specs to worker processes over
// a line-delimited JSON protocol, so paper-scale grids shard across
// machines. The server side plugs into an experiments.Runner as its
// Execute field (server.Execute): drivers enumerate grids exactly as for
// local runs, each spec travels to an idle worker slot, and the runner
// reassembles results in enumeration order — the output is bit-identical
// to local execution because a spec carries every semantic input
// (including its derived seed) and results travel in the stable sim binary
// codec.
//
// Protocol (one JSON object per line, both directions):
//
//	worker -> server  {"type":"hello","proto":"hyperx-queue/2","slots":N,"engine":"<version>","name":"w123-1"}
//	server -> worker  {"type":"hello-ack","proto":"hyperx-queue/2","engine":"<version>","hb":2000,"lease":120000}
//	server -> worker  {"type":"error","error":"..."}           (handshake refused)
//	server -> worker  {"type":"job","id":7,"fence":1,"spec":{...},"ckpt":"<base64>"}  (up to N outstanding; ckpt: the job's last snapshot, if any)
//	worker -> server  {"type":"ckpt","id":7,"fence":1,"ckpt":"<base64>"}  (periodic snapshot, at least every half lease)
//	worker -> server  {"type":"result","id":7,"fence":1,"result":"<base64>","sum":"<hex sha256>"}
//	worker -> server  {"type":"result","id":7,"fence":1,"error":"..."}    (job failed)
//	worker -> server  {"type":"hb"}                             (heartbeat, at the hello-ack's interval)
//	worker -> server  {"type":"bye"}                            (graceful drain announcement)
//	server -> worker  {"type":"bye"}                            (graceful shutdown)
//
// The two payloads are bytes, which encoding/json writes as standard
// base64. A ckpt is an engine snapshot exactly as sim's checkpoint Sink
// produced it: the server keeps it, persists it and hands it to the next
// worker without looking inside, and only the resuming engine reads it. A
// result is the sim result codec, with its SHA-256 in sum. A payload that
// is not base64 fails the frame's parse: a corrupt frame (see below).
//
// Nothing is negotiated: the hello and the hello-ack each name the one
// protocol word, protoVersion, and either side refuses a peer that names
// another or none, as builds before the word did. The server also refuses
// a worker whose engine version (sim.EngineVersion) differs — mixed
// engines would merge semantically divergent rows.
// A job error is final (it is deterministic) and propagates to the
// caller; every transport fault instead re-dispatches the job, so the
// merged grid stays bit-identical to an undisturbed local run.
//
// Every worker beats at the hello-ack's interval. The lease the ack names
// is one fixed term for every job, and a worker ships a ckpt frame for
// each running job at least every half lease: it caps its wall-clock
// checkpoint trigger at lease/2 (withinLease), so a run of any length
// keeps its lease. The server ends every run with a bye frame, so to a
// worker a hangup without bye is always a fault: WorkLoop reconnects.
//
// One owner per connection: on both sides a reader goroutine only parses
// lines into frames, and one loop (session.go, worker.go) owns the
// connection's state and every write to it. Each fault below names the
// transition of the server's session that handles it. The package holds no
// state but the counter that numbers worker identities: a server is a
// Server, a worker a worker value (worker.go).
//
// Failure model. The queue tolerates, without changing a single output
// byte:
//
//   - Worker crash (SIGKILL, OOM, network loss): the dropped connection
//     requeues every job the worker owed, each carrying its latest
//     checkpoint snapshot, so the next worker resumes instead of
//     restarting. Cost: at most one checkpoint interval per job — half a
//     lease at most (end).
//   - Worker hang (stuck job, livelocked host): each dispatched job holds
//     the hello-ack's fixed lease; checkpoint frames renew it, heartbeats
//     do not (a beating heart proves the link, not progress). An expired
//     lease re-dispatches the job elsewhere (sweep). A worker that stops
//     sending frames entirely for several heartbeat intervals has its
//     connection severed, which requeues everything it held (the reader's
//     deadline, then end); a connection that never sends its hello is
//     closed the same way.
//   - Zombie results: every dispatch carries a fencing token; a result or
//     checkpoint frame whose token does not match the current dispatch
//     (a revoked worker finishing late) is counted and dropped (handle).
//   - Corrupt frames: results carry a SHA-256 of their payload; a frame
//     without the checksum, or failing it, its encoding or its codec, is
//     a transport fault — the link is severed and the jobs re-dispatched
//     — never a job verdict (handle, then end).
//   - Poison jobs: a job whose attempts cost too many distinct workers
//     their lives is quarantined with its full attempt history
//     (experiments.QuarantineError) instead of re-queued; the rest of the
//     grid completes and renders the point as an explicit hole
//     (requeueOrQuarantine, from sweep or end).
//   - Server kill/restart: a server given a cache store journals
//     attempts and quarantines (fsynced, append-only) and persists the
//     latest checkpoint per in-flight job.
//     A restarted server replays the journal: completed points come back
//     from the result cache, in-flight points resume from their persisted
//     snapshots, and quarantined specs stay quarantined without killing
//     fresh workers. Workers ride out the restart on their reconnect
//     schedule (capped exponential backoff with seeded jitter).
//
// A draining worker (SIGTERM) stops each slot at its next inter-cycle
// point, ships a final snapshot, announces the drain with a worker-side
// "bye", and hangs up; the server counts it as drained rather than
// crashed and the handed-back jobs carry no blame toward quarantine (end).
package queue

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/sim"
)

// protoVersion names the line protocol below. Hello and hello-ack both
// carry it, and each side refuses a peer that names another.
const protoVersion = "hyperx-queue/2"

// message is the single wire frame of the protocol; Type selects which
// fields are meaningful.
type message struct {
	Type   string          `json:"type"`
	Proto  string          `json:"proto,omitempty"` // hello / hello-ack: protoVersion
	Slots  int             `json:"slots,omitempty"`
	Engine string          `json:"engine,omitempty"`
	Name   string          `json:"name,omitempty"`  // hello: worker identity for attempt accounting
	HB     int64           `json:"hb,omitempty"`    // hello-ack: heartbeat interval, milliseconds
	Lease  int64           `json:"lease,omitempty"` // hello-ack: job lease, milliseconds
	ID     int64           `json:"id,omitempty"`
	Fence  int64           `json:"fence,omitempty"` // job: dispatch token; echoed on ckpt/result
	Spec   json.RawMessage `json:"spec,omitempty"`
	Ckpt   []byte          `json:"ckpt,omitempty"`   // ckpt frame / job resume: an engine snapshot as sim's Sink shipped it
	Result []byte          `json:"result,omitempty"` // result: the sim result codec bytes
	Sum    string          `json:"sum,omitempty"`    // result: hex SHA-256 of the raw result bytes
	Error  string          `json:"error,omitempty"`
}

// readMessage decodes one line-delimited frame.
func readMessage(r *bufio.Reader, msg *message) error {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, msg)
}

// writeMessage encodes one frame and appends the line delimiter.
func writeMessage(conn net.Conn, msg *message) error {
	data, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = conn.Write(data)
	return err
}

// inbound is what a connection's reader hands the loop that owns the
// connection: a parsed frame, or the error that ended the stream.
type inbound struct {
	msg message
	err error
}

// readFrames is a connection's reader goroutine: it parses lines into
// frames for the owner and stops after the error that ended the stream.
// quiet > 0 bounds the wait for each frame, the first one included. The
// server reads a worker under it: a worker beats, so a longer silence is
// a dead process or host behind a live TCP window, or a peer that never
// says hello. A failed read closes the connection, because the owner may
// be stuck in a write to that same dead peer and only the failing write
// lets it end the session. done releases a reader whose owner has left.
func readFrames(conn net.Conn, quiet time.Duration, frames chan<- inbound, done <-chan struct{}) {
	r := bufio.NewReader(conn)
	for {
		if quiet > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(quiet))
		}
		var in inbound
		if in.err = readMessage(r, &in.msg); in.err != nil {
			conn.Close()
		}
		select {
		case frames <- in:
		case <-done:
			return
		}
		if in.err != nil {
			return
		}
	}
}

// isEOF reports whether a read ended because the connection did — the
// peer hung up, this side closed it or declared the peer dead for silence
// — rather than on a line that is not a frame.
func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}

// outcome is what a pending job resolves to.
type outcome struct {
	res *sim.Result
	err error
}

// encodeOutcome fills a result frame with the job's verdict: the error
// text of a failed job, or the result bytes with their SHA-256.
func encodeOutcome(reply *message, res *sim.Result, err error) {
	if err != nil {
		reply.Error = err.Error()
		return
	}
	reply.Result = res.AppendBinary(nil)
	sum := sha256.Sum256(reply.Result)
	reply.Sum = hex.EncodeToString(sum[:])
}

// decodeOutcome turns a result frame into the pending job's outcome.
// ok == false flags transport corruption — a missing or mismatched
// checksum, undecodable result bytes — which is a fault of the link, never a
// verdict on the job. (A payload that is not base64 never gets here: the
// frame fails to parse.) Job errors carry only the worker marker;
// the submitting side (ExecuteJobs) prefixes the job label.
func decodeOutcome(msg *message) (outcome, bool) {
	if msg.Error != "" {
		return outcome{err: fmt.Errorf("on worker: %s", msg.Error)}, true
	}
	if sum := sha256.Sum256(msg.Result); hex.EncodeToString(sum[:]) != msg.Sum {
		return outcome{}, false
	}
	res, err := sim.DecodeResult(msg.Result)
	if err != nil {
		return outcome{}, false
	}
	return outcome{res: res}, true
}
