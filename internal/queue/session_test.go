package queue

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestQuarantineTalliedAndJournalledBeforeDelivered pins the order of a
// job's completion: a quarantine is tallied, then journalled, then
// delivered; a result drops the job's checkpoint, then is delivered. With
// an unbuffered done channel the delivery cannot happen until this test
// receives, so the tally and the journal record (or the removal) must be
// visible while the outcome is still undelivered — a caller that reads
// Stats(), the journal or the store right after ExecuteJobsPartial
// returns can then never miss them.
func TestQuarantineTalliedAndJournalledBeforeDelivered(t *testing.T) {
	t.Parallel()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{Store: store, poisonAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	journalHas := func(op string) bool {
		matches, _ := filepath.Glob(filepath.Join(store.Dir(), "*", "grid.journal"))
		if len(matches) != 1 {
			return false
		}
		data, _ := os.ReadFile(matches[0])
		return strings.Contains(string(data), `"op":"`+op+`"`)
	}

	spec := testSpecs()[0]
	p := &pending{id: 1, key: spec.Hash(), spec: &spec, done: make(chan outcome)}
	go srv.requeueOrQuarantine(p, "w-1", "worker-lost")
	waitFor(t, 2*time.Second, "the quarantine tally and journal record, outcome undelivered", func() bool {
		return srv.Stats().Quarantined == 1 && journalHas("quarantine")
	})
	select {
	case out := <-p.done:
		if _, ok := out.err.(*experiments.QuarantineError); !ok {
			t.Fatalf("delivered %v, want a QuarantineError", out.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the quarantine was never delivered")
	}

	// The same order for a result: the checkpoint is removed before the
	// outcome is delivered.
	if err := store.PutCheckpoint(spec.Hash(), []byte("a snapshot")); err != nil {
		t.Fatal(err)
	}
	q := &pending{id: 2, key: spec.Hash(), spec: &spec, done: make(chan outcome)}
	go srv.finish(q, outcome{res: &sim.Result{}})
	waitFor(t, 2*time.Second, "the checkpoint removed, outcome undelivered", func() bool {
		_, ok := store.GetCheckpoint(spec.Hash())
		return !ok
	})
	<-q.done
}

// TestRequeueNeverBlocksOnAFullQueue: a session hands jobs back from the
// loop that also empties the queue, so the hand-back must return even
// when the buffer is full of submissions — and the job must still arrive.
func TestRequeueNeverBlocksOnAFullQueue(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	filler := &pending{}
	for i := 0; i < cap(srv.jobs); i++ {
		srv.jobs <- filler
	}
	back := &pending{id: 99, done: make(chan outcome, 1)}
	returned := make(chan struct{})
	go func() { srv.requeue(back); close(returned) }()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("requeue blocked on a full queue")
	}
	for i := 0; i <= cap(srv.jobs); i++ {
		select {
		case p := <-srv.jobs:
			if p == back {
				return
			}
		case <-time.After(2 * time.Second):
			t.Fatal("the handed-back job never reached the queue")
		}
	}
	t.Fatal("the handed-back job never reached the queue")
}

// dialHello opens a raw connection and sends the given hello.
func dialHello(t *testing.T, addr string, hello message) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello.Type, hello.Proto, hello.Engine = "hello", protoVersion, sim.EngineVersion
	if err := writeMessage(conn, &hello); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestHugeSlotsHelloCostsNoGoroutines: the slot count is a length the
// peer chooses, so the server must not spend anything per unit of it. A
// hello advertising a billion slots, then a hangup, leaves the server
// serving real workers with its goroutine count back at the baseline. A
// connection that never says hello costs nothing for long either: the
// silence deadline closes it after heartbeatMissFactor heartbeats, and
// it never became a session to tally.
func TestHugeSlotsHelloCostsNoGoroutines(t *testing.T) {
	// Not parallel: it counts the goroutines of the whole process.
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{heartbeat: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := runtime.NumGoroutine()

	mute, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	mute.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := mute.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("a connection that never says hello read %d bytes, %v; want the server to close it", n, err)
	}
	waitFor(t, 5*time.Second, "the mute connection's goroutines to end", func() bool {
		return runtime.NumGoroutine() <= base
	})
	if st := srv.Stats(); st.Crashed != 0 || st.Drained != 0 {
		t.Errorf("a connection that never said hello was tallied as a session: %+v", st)
	}

	conn := dialHello(t, srv.Addr(), message{Slots: 1_000_000_000})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ack message
	if err := readMessage(bufio.NewReader(conn), &ack); err != nil || ack.Type != "hello-ack" {
		t.Fatalf("no ack for the huge hello: %+v %v", ack, err)
	}
	if n := runtime.NumGoroutine(); n > base+8 {
		t.Errorf("%d goroutines while the huge-slots session is open, baseline %d", n, base)
	}
	conn.Close()
	waitFor(t, 5*time.Second, "the huge-slots session to be tallied", func() bool { return srv.Stats().Crashed == 1 })

	workerDone := make(chan error, 1)
	go func() { workerDone <- WorkLoop(srv.Addr(), slots(1)) }()
	spec := testSpecs()[0]
	if _, err := srv.Execute(&spec); err != nil {
		t.Fatalf("server stopped serving after the huge hello: %v", err)
	}
	srv.Close()
	if err := <-workerDone; err != nil {
		t.Errorf("worker exit: %v", err)
	}
	waitFor(t, 5*time.Second, "goroutines to return to the baseline", func() bool {
		return runtime.NumGoroutine() <= base+2
	})
}

// bigPending is a hand-built job whose frame no socket buffer holds: its
// resume snapshot is 16 MB, so a write to a worker that does not read
// blocks.
func bigPending(id int64) *pending {
	spec := testSpecs()[0]
	return &pending{id: id, spec: &spec, done: make(chan outcome, 1), ckpt: bytes.Repeat([]byte("A"), 16<<20)}
}

// TestSilentWorkerSeveredMidWrite: the session's one goroutine may be
// stuck writing to the very worker that went silent. The reader's silence
// deadline still severs the link, which fails the write, and the job goes
// back into circulation.
func TestSilentWorkerSeveredMidWrite(t *testing.T) {
	t.Parallel()
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{heartbeat: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The job waits in the queue before the worker exists, so the session
	// takes it straight after the handshake, inside the silence deadline.
	srv.jobs <- bigPending(1)
	silent := dialHello(t, srv.Addr(), message{Slots: 1, Name: "silent-nonreader"})
	defer silent.Close()
	waitFor(t, 10*time.Second, "the silent, non-reading worker to be severed and its job requeued", func() bool {
		st := srv.Stats()
		return st.Crashed == 1 && st.Requeues == 1
	})
}

// TestCloseReturnsDespiteStuckWrite: Close must not wait on a session
// that is stuck writing to a worker which stopped reading. It returns
// within the close grace, long before the worker's silence (four
// heartbeats of the default two seconds) would sever the link.
func TestCloseReturnsDespiteStuckWrite(t *testing.T) {
	t.Parallel()
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{closeGrace: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.jobs <- bigPending(1)
	stuck := dialHello(t, srv.Addr(), message{Slots: 1})
	defer stuck.Close()
	// The worker reads the ack and one byte of the job frame, then nothing:
	// the session is now inside a write no socket buffer can take.
	stuck.SetReadDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(stuck)
	var ack message
	if err := readMessage(r, &ack); err != nil || ack.Type != "hello-ack" {
		t.Fatalf("no ack: %+v %v", ack, err)
	}
	if _, err := r.ReadByte(); err != nil {
		t.Fatalf("the job frame never started: %v", err)
	}
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Close took %v with a session stuck in a write", d)
	}
}

// FuzzFrame: any line a peer sends is an error or a frame, and whatever
// the frame carries decodes to an error or a value — never a panic. A
// snapshot payload is opaque here: it parses as base64 or fails the frame.
// The decoded frame then goes through a session holding one custody, whose
// slot accounting must hold after every frame. The seeds are this
// protocol's frames and the /1 hello and ack.
func FuzzFrame(f *testing.F) {
	spec := testSpecs()[0]
	specJSON, err := spec.EncodeJSON()
	if err != nil {
		f.Fatal(err)
	}
	res, err := experiments.Runner{}.RunSpec(&spec)
	if err != nil {
		f.Fatal(err)
	}
	snap := []byte("not a snapshot, but opaque bytes like one")
	result := &message{Type: "result", ID: 7, Fence: 1}
	encodeOutcome(result, res, nil)
	for _, msg := range []*message{
		{Type: "hello", Proto: protoVersion, Slots: 2, Engine: sim.EngineVersion, Name: "w123-1"},
		{Type: "hello-ack", Proto: protoVersion, Engine: sim.EngineVersion, HB: 2000, Lease: 120000},
		{Type: "job", ID: 7, Fence: 1, Spec: specJSON, Ckpt: snap},
		{Type: "ckpt", ID: 7, Fence: 1, Ckpt: snap},
		result,
		{Type: "result", ID: 7, Fence: 1, Error: "unknown mechanism"},
		{Type: "result", ID: 7, Fence: 2, Error: "late"},
		{Type: "hb"},
		{Type: "bye"},
		{Type: "error", Error: "engine version mismatch"},
	} {
		line, err := json.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(helloV1))
	f.Add([]byte(ackV1))
	f.Fuzz(func(t *testing.T, line []byte) {
		var msg message
		if err := readMessage(bufio.NewReader(bytes.NewReader(append(line, '\n'))), &msg); err != nil {
			return
		}
		switch msg.Type {
		case "result":
			if out, ok := decodeOutcome(&msg); ok && out.res == nil && out.err == nil {
				t.Fatal("a result frame decoded to neither a result nor an error")
			}
		case "job":
			if s, err := experiments.DecodeSpecJSON(msg.Spec); err == nil && s == nil {
				t.Fatal("a spec decoded to neither a spec nor an error")
			}
		}
		p := &pending{id: 7, fence: 1, spec: &spec, done: make(chan outcome, 1)}
		ss := &session{s: &Server{}, slots: 2, free: 1, held: map[int64]*pending{7: p}}
		ss.handle(&msg)
		if ss.free+len(ss.held) != ss.slots {
			t.Fatalf("after %q: free %d + held %d != slots %d", line, ss.free, len(ss.held), ss.slots)
		}
		if (len(ss.held) == 0) != (len(p.done) == 1) {
			t.Fatalf("after %q: held %d but %d outcomes delivered", line, len(ss.held), len(p.done))
		}
	})
}

// TestFramesMatchLiteralEncoding pins the wire bytes of the frames that
// carry payloads. The literals are lines an earlier encoding produced, one
// that held each payload as a base64 string: a job with a resume snapshot,
// a ckpt frame, and a result with its checksum. Byte payloads must encode
// to the same lines, and the lines must decode back to the payloads, so
// servers and workers of either encoding interoperate.
func TestFramesMatchLiteralEncoding(t *testing.T) {
	t.Parallel()
	snap := []byte{0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xff, 0xfb, 0xef, 0xbe, 0x3e, 0x00}
	res := &sim.Result{OfferedLoad: 0.5, AcceptedLoad: 0.49, AvgLatency: 42.25, DeliveredPackets: 1234, GeneratedPackets: 1250, Cycles: 1500}
	result := &message{Type: "result", ID: 7, Fence: 2}
	encodeOutcome(result, res, nil)
	for _, tc := range []struct {
		msg  *message
		line string
	}{
		{&message{Type: "job", ID: 7, Fence: 2, Spec: json.RawMessage(`{"mechanism":"PolSP","load":0.5}`), Ckpt: snap},
			`{"type":"job","id":7,"fence":2,"spec":{"mechanism":"PolSP","load":0.5},"ckpt":"H4sIAAAAAAAE//vvvj4A"}`},
		{&message{Type: "ckpt", ID: 7, Fence: 2, Ckpt: snap},
			`{"type":"ckpt","id":7,"fence":2,"ckpt":"H4sIAAAAAAAE//vvvj4A"}`},
		{result,
			`{"type":"result","id":7,"fence":2,"result":"AQAAAAAAAOA/XI/C9Shc3z8AAAAAACBFQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA0gQAAAAAAADiBAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAANwFAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA==","sum":"9da38cd1d86b0aa5d9f2082498cd22c91253c11afca4095b2917b993dc6ac475"}`},
	} {
		got, err := json.Marshal(tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.line {
			t.Errorf("%s frame moved:\n got %s\nwant %s", tc.msg.Type, got, tc.line)
		}
		var back message
		if err := readMessage(bufio.NewReader(strings.NewReader(tc.line+"\n")), &back); err != nil {
			t.Fatalf("%s: the literal does not parse: %v", tc.msg.Type, err)
		}
		if !bytes.Equal(back.Ckpt, tc.msg.Ckpt) || !bytes.Equal(back.Result, tc.msg.Result) {
			t.Errorf("%s: the literal decodes to other payload bytes", tc.msg.Type)
		}
	}
	if out, ok := decodeOutcome(result); !ok || out.res == nil || !bytes.Equal(out.res.AppendBinary(nil), res.AppendBinary(nil)) {
		t.Error("the result frame does not decode back to its result")
	}
}

// TestRefusedFrames: frames only a broken peer or a build of another
// protocol sends are refused, and the job they name still completes on the
// next worker, from zero, to the local run's bytes. A ckpt frame whose
// payload is not base64 and a result frame without its checksum are
// corrupt, like any line that does not parse: the session is severed and
// counted, and its job requeues. A frame with fence 0 matches no dispatch:
// it is a zombie, and neither finishes the job nor keeps its snapshot. No
// refused snapshot reaches the store or the next worker.
func TestRefusedFrames(t *testing.T) {
	t.Parallel()
	spec := testSpecs()[0]
	ref, err := slots(1).RunSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	result := &message{Type: "result"}
	encodeOutcome(result, ref, nil)
	line := func(msg *message) string {
		data, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, tc := range []struct {
		name            string
		frame           func(job *message) string
		corrupt, zombie int64
	}{
		{"non-base64 ckpt", func(job *message) string {
			return fmt.Sprintf(`{"type":"ckpt","id":%d,"fence":%d,"ckpt":"not base64!"}`, job.ID, job.Fence)
		}, 1, 0},
		{"result without sum", func(job *message) string {
			return line(&message{Type: "result", ID: job.ID, Fence: job.Fence, Result: result.Result})
		}, 1, 0},
		{"result with fence 0", func(job *message) string {
			return line(&message{Type: "result", ID: job.ID, Result: result.Result, Sum: result.Sum})
		}, 0, 1},
		{"ckpt with fence 0", func(job *message) string {
			return line(&message{Type: "ckpt", ID: job.ID, Ckpt: []byte("a snapshot")})
		}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			store, err := cache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			srv, err := ServeWith("127.0.0.1:0", ServeOpts{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			execDone := make(chan outcome, 1)
			go func() {
				res, err := srv.Execute(&spec)
				execDone <- outcome{res, err}
			}()

			conn := dialHello(t, srv.Addr(), message{Slots: 1, Name: "refused"})
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			r := bufio.NewReader(conn)
			var ack, job message
			if err := readMessage(r, &ack); err != nil || ack.Type != "hello-ack" {
				t.Fatalf("no ack: %+v %v", ack, err)
			}
			if err := readMessage(r, &job); err != nil || job.Type != "job" {
				t.Fatalf("no job: %+v %v", job, err)
			}
			if _, err := conn.Write([]byte(tc.frame(&job) + "\n")); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, "the frame to be refused", func() bool {
				st := srv.Stats()
				return st.CorruptFrames+st.ZombiesDropped > 0
			})
			conn.Close() // a zombie leaves the session open; a corrupt frame has ended it
			waitFor(t, 10*time.Second, "the session to end and requeue its job", func() bool {
				st := srv.Stats()
				return st.Crashed == 1 && st.Requeues == 1
			})
			st := srv.Stats()
			if st.CorruptFrames != tc.corrupt || st.ZombiesDropped != tc.zombie {
				t.Errorf("%d corrupt and %d zombie frames, want %d and %d", st.CorruptFrames, st.ZombiesDropped, tc.corrupt, tc.zombie)
			}
			if st.CheckpointFrames != 0 || st.PersistFailures != 0 {
				t.Errorf("the refused frame's snapshot was taken: %d ckpt frames, %d persist failures", st.CheckpointFrames, st.PersistFailures)
			}
			if _, ok := store.GetCheckpoint(spec.Hash()); ok {
				t.Error("the refused frame's snapshot reached the store")
			}
			select {
			case got := <-execDone:
				t.Fatalf("the refused frame finished the job: %+v", got)
			default:
			}

			w := testWorker(t, slots(1))
			w.onResume = func(n int) { t.Errorf("the requeued job carried a %d-byte resume snapshot", n) }
			workerDone := make(chan error, 1)
			go func() { workerDone <- w.loop(srv.Addr()) }()
			select {
			case got := <-execDone:
				if got.err != nil {
					t.Fatal(got.err)
				}
				if !bytes.Equal(got.res.AppendBinary(nil), ref.AppendBinary(nil)) {
					t.Error("the requeued job's result differs from a local run")
				}
			case <-time.After(30 * time.Second):
				t.Fatal("the requeued job never completed")
			}
			srv.Close()
			if err := <-workerDone; err != nil {
				t.Errorf("worker exit: %v", err)
			}
		})
	}
}
