package queue

import (
	"fmt"
	"net"
	"time"

	"repro/internal/sim"
)

// sweepTick picks the lease sweep period: half the heartbeat, clamped
// so compressed test schedules still sweep and production ones do not
// spin.
func sweepTick(hb time.Duration) time.Duration {
	tick := hb / 2
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 500*time.Millisecond {
		tick = 500 * time.Millisecond
	}
	return tick
}

// session is the server's state for one worker connection. The goroutine
// running serveWorker is its only owner: it alone touches these fields,
// holds the custody of every pending in held, and writes to conn.
type session struct {
	s       *Server
	conn    net.Conn
	worker  string             // identity charged with the custodies that fail
	slots   int                // as advertised; 0 until the handshake is done
	free    int                // slots without a job: free + len(held) + revoked == slots
	held    map[int64]*pending // jobs the worker holds, by id
	revoked int                // revoked dispatches the worker is still running: results not yet in
	bye     bool               // the worker announced a drain
	torn    bool               // a write failed: the stream may end in half a frame
}

// serveWorker runs one worker connection: the handshake, then a loop that
// moves the session on whatever comes first — a frame from the worker
// (handle), a job for a free slot (dispatch), the lease clock (sweep) or
// server shutdown — and end on every way out. It costs three goroutines
// whatever the hello says: this one, the reader and the close watcher.
func (s *Server) serveWorker(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		// What the owner cannot do for itself: notice shutdown while stuck
		// writing to a worker that stopped reading. Bounding that write
		// keeps Close prompt; a healthy session's bye goes out under it.
		select {
		case <-s.closed:
			_ = conn.SetWriteDeadline(time.Now().Add(s.opts.closeGrace))
		case <-done:
		}
	}()
	ss := &session{s: s, conn: conn, held: make(map[int64]*pending)}
	defer ss.end()
	// A worker beats from its ack on, and a peer silent for longer than
	// the misses allow — a peer that never says hello included — is gone.
	frames := make(chan inbound)
	go readFrames(conn, s.opts.heartbeat*heartbeatMissFactor, frames, done)
	select {
	case in := <-frames:
		if in.err != nil || !ss.greet(&in.msg) {
			return
		}
	case <-s.closed:
		return
	}
	tick := time.NewTicker(sweepTick(s.opts.heartbeat))
	defer tick.Stop()
	for {
		jobs := s.jobs
		if ss.free == 0 {
			jobs = nil // every slot is busy: leave the queue to other sessions
		}
		select {
		case in := <-frames:
			if in.err != nil {
				// Not a hangup: the stream delivered a line that is not a
				// frame. Everything after it is untrustworthy.
				if !isEOF(in.err) {
					s.corrupt.Add(1)
				}
				return
			}
			if !ss.handle(&in.msg) {
				return
			}
		case p := <-jobs:
			if !ss.dispatch(p) {
				return
			}
		case now := <-tick.C:
			ss.sweep(now)
		case <-s.closed:
			return
		}
	}
}

// greet answers the worker's hello with a rejection — another protocol or
// another engine, and the error frame names both sides' words — or with
// the ack that opens the session. The ack names the heartbeat interval the
// worker keeps and the job lease its ckpt frames must beat, and goes out
// before any job.
func (ss *session) greet(hello *message) bool {
	if hello.Type != "hello" || hello.Slots < 1 {
		return false
	}
	if hello.Proto != protoVersion || hello.Engine != sim.EngineVersion {
		_ = writeMessage(ss.conn, &message{Type: "error", Error: fmt.Sprintf(
			"hello names queue protocol %q and engine %q; this server speaks %q on %q",
			hello.Proto, hello.Engine, protoVersion, sim.EngineVersion)})
		return false
	}
	if ss.worker = hello.Name; ss.worker == "" {
		ss.worker = ss.conn.RemoteAddr().String()
	}
	ack := &message{Type: "hello-ack", Proto: protoVersion, Engine: sim.EngineVersion,
		HB: ss.s.opts.heartbeat.Milliseconds(), Lease: ss.s.opts.lease.Milliseconds()}
	if err := writeMessage(ss.conn, ack); err != nil {
		ss.torn = true
		return false
	}
	ss.slots, ss.free = hello.Slots, hello.Slots
	return true
}

// handle applies one frame from the worker: a result finishes its job and
// frees the slot, a checkpoint is kept (and persisted) and renews the
// lease, a frame of a superseded dispatch is fenced off — its result
// freeing the slot its revoked run kept busy — and bye marks the hangup to
// come as a drain. A heartbeat changes nothing: its arrival
// already pushed the reader's silence deadline out, and leases renew on
// checkpoints only — a beating heart proves the link, not progress. False
// means the stream can no longer be trusted and the session must end.
func (ss *session) handle(msg *message) bool {
	s := ss.s
	switch msg.Type {
	case "bye":
		ss.bye = true
	case "ckpt":
		p := ss.held[msg.ID]
		if p == nil || msg.Fence != p.fence {
			if len(msg.Ckpt) > 0 {
				s.zombies.Add(1)
			}
			return true
		}
		if len(msg.Ckpt) == 0 {
			return true
		}
		p.ckpt = msg.Ckpt
		s.ckpts.Add(1)
		p.deadline = time.Now().Add(s.opts.lease)
		if s.opts.Store != nil && p.key != "" && s.opts.Store.PutCheckpoint(p.key, msg.Ckpt) != nil {
			s.persistFails.Add(1)
		}
	case "result":
		out, ok := decodeOutcome(msg)
		if !ok {
			// Corruption is a fault of the link, never a job verdict:
			// sever; the owed jobs (this one included, still held)
			// requeue deterministically.
			s.corrupt.Add(1)
			return false
		}
		p := ss.held[msg.ID]
		if p == nil || msg.Fence != p.fence {
			// A dispatch this frame does not match anymore: the lease
			// was revoked and the job re-dispatched. Drop the late
			// answer; the current custody decides. The revoked run is
			// over, so the slot it occupied takes jobs again.
			s.zombies.Add(1)
			if ss.revoked > 0 {
				ss.revoked--
				ss.free++
			}
			return true
		}
		delete(ss.held, msg.ID)
		ss.free++
		s.finish(p, out)
	}
	return true
}

// dispatch takes custody of p and sends it to a free slot under a fresh
// fence and lease. It reports false when the write failed, which ends
// the session with p among the jobs it owes.
func (ss *session) dispatch(p *pending) bool {
	data, err := p.spec.EncodeJSON()
	if err != nil {
		ss.s.finish(p, outcome{err: fmt.Errorf("queue: encode spec: %w", err)})
		return true
	}
	p.fence++
	p.deadline = time.Now().Add(ss.s.opts.lease)
	ss.held[p.id] = p
	ss.free--
	// A requeued job carries its last snapshot, so this worker resumes
	// where the lost one left off.
	job := &message{Type: "job", ID: p.id, Fence: p.fence, Spec: data, Ckpt: p.ckpt}
	if err := writeMessage(ss.conn, job); err != nil {
		ss.torn = true
		return false
	}
	return true
}

// sweep reclaims the jobs whose lease ran out: the worker may be healthy
// but is stuck on this one. The job is charged and handed on, and the
// fence blocks whatever the stale custody still sends. The slot stays
// busy until that custody's result comes in: the worker is still running
// the revoked job, so a job dispatched into the slot now would wait in
// the worker's queue, where its own lease runs out unrenewed — revoked and
// re-dispatched for as long as runs outlast leases.
func (ss *session) sweep(now time.Time) {
	for id, p := range ss.held {
		if now.Before(p.deadline) {
			continue
		}
		delete(ss.held, id)
		ss.revoked++
		ss.s.leasesRevoked.Add(1)
		ss.s.requeueOrQuarantine(p, ss.worker, "lease-revoked")
	}
}

// end settles what the session still holds, on every way out. Server
// shutdown: say bye so the worker knows the run is over rather than lost;
// Close fails the jobs. Otherwise the worker is gone: each job it owed
// goes back into circulation with its latest checkpoint, so the next
// worker resumes it. A drained worker hands its jobs back blamelessly; a
// lost one is charged an attempt on each, which is what eventually
// quarantines a poison job.
func (ss *session) end() {
	s := ss.s
	select {
	case <-s.closed:
		// Never append bye after a failed (possibly partial) frame: the
		// worker's line reader would see garbage instead of a clean
		// shutdown. A plain close is the lesser signal but unambiguous.
		if !s.abrupt.Load() && !ss.torn {
			_ = writeMessage(ss.conn, &message{Type: "bye"})
		}
		return
	default:
	}
	if ss.slots == 0 {
		return // never got past the handshake: nothing held, nobody to tally
	}
	if ss.bye {
		s.drained.Add(1)
	} else {
		s.crashed.Add(1)
	}
	for _, p := range ss.held {
		if ss.bye {
			s.requeue(p)
		} else {
			s.requeueOrQuarantine(p, ss.worker, "worker-lost")
		}
	}
}
