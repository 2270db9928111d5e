package queue

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/topo"
)

// testSpecs enumerates a small mixed grid: two mechanisms at two loads.
func testSpecs() []experiments.JobSpec {
	var specs []experiments.JobSpec
	i := 0
	for _, mech := range []string{"Minimal", "PolSP"} {
		for _, load := range []float64{0.3, 0.8} {
			specs = append(specs, experiments.JobSpec{
				Topo:        topo.Spec{Kind: topo.KindHyperX, Dims: []int{4, 4}},
				Per:         4,
				Mechanism:   mech,
				Pattern:     "Uniform",
				VCs:         4,
				Load:        load,
				Budget:      experiments.Budget{Warmup: 300, Measure: 600},
				Seed:        experiments.JobSeed(41, i),
				PatternSeed: 41,
			})
			i++
		}
	}
	return specs
}

// slots is the plainest worker (or local reference) Runner: n jobs at once,
// nothing else set.
func slots(n int) experiments.Runner { return experiments.Runner{Workers: n} }

// testWorker mints a worker over r, as WorkLoop does, for the test to tune,
// put under a harness and drive through loop itself.
func testWorker(t *testing.T, r experiments.Runner) *worker {
	t.Helper()
	w, err := newWorker(r)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// compressed is the reconnect schedule of tests that wait reconnects out —
// above all the last one, a worker giving up on a server the test has
// closed: the production attempt budget, milliseconds instead of seconds.
func compressed() backoff {
	return backoff{base: time.Millisecond, max: 5 * time.Millisecond, maxDown: 120}
}

// TestServeWorkerBitIdentical is the distributed-execution guarantee: a
// grid run through a localhost serve/worker pair returns bytes identical
// to local execution, in the same enumeration order.
func TestServeWorkerBitIdentical(t *testing.T) {
	t.Parallel()
	specs := testSpecs()
	local, err := slots(2).ExecuteJobs(specs)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	workerDone := make(chan error, 1)
	go func() { workerDone <- WorkLoop(srv.Addr(), slots(2)) }()

	remote, err := experiments.Runner{Workers: 2, Execute: srv.Execute}.ExecuteJobs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("got %d results, want %d", len(remote), len(local))
	}
	for i := range local {
		if string(local[i].AppendBinary(nil)) != string(remote[i].AppendBinary(nil)) {
			t.Errorf("job %d: distributed result differs from local", i)
		}
	}

	// A clean server shutdown ends the worker without error.
	srv.Close()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Errorf("worker exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("worker did not exit after server close")
	}
}

// TestServeWorkerJobError: a deterministic job failure propagates to the
// submitting side instead of wedging the queue — an unknown mechanism, and
// a job frame declaring a network past topo.MaxSwitches, which the worker
// answers with the error instead of building it.
func TestServeWorkerJobError(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go WorkLoop(srv.Addr(), slots(1))

	spec := &experiments.JobSpec{
		Label: "bogus job",
		Topo:  topo.Spec{Kind: topo.KindHyperX, Dims: []int{4, 4}},
		Per:   4, Mechanism: "Bogus", Pattern: "Uniform",
		VCs: 4, Load: 0.5,
		Budget: experiments.Budget{Warmup: 10, Measure: 20},
	}
	_, err = srv.Execute(spec)
	if err == nil || !strings.Contains(err.Error(), "unknown mechanism") {
		t.Fatalf("job error not propagated: %v", err)
	}
	huge := testSpecs()[0]
	huge.Topo.Dims = []int{1 << 30}
	_, err = srv.Execute(&huge)
	if err == nil || !strings.Contains(err.Error(), "on worker") || !strings.Contains(err.Error(), "switches") {
		t.Fatalf("oversized job not refused by the worker: %v", err)
	}
	// The queue still works after the failure.
	ok := testSpecs()[0]
	res, err := srv.Execute(&ok)
	if err != nil || res == nil {
		t.Fatalf("queue wedged after job error: %v", err)
	}
}

// TestWorkerEngineMismatch: the handshake rejects a worker advertising a
// different engine version (it would merge divergent rows) — an unknown
// one, and the hyperx-sim/3 that an older build's worker advertises when
// started on its retired per-cycle-generation engine.
func TestWorkerEngineMismatch(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, engine := range []string{"ancient-sim/0", "hyperx-sim/3"} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello, _ := json.Marshal(message{Type: "hello", Slots: 1, Engine: engine})
		if _, err := conn.Write(append(hello, '\n')); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 4096)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%s: no rejection frame: %v", engine, err)
		}
		var msg message
		if err := json.Unmarshal(buf[:n], &msg); err != nil {
			t.Fatal(err)
		}
		if msg.Type != "error" || !strings.Contains(msg.Error, "engine version") {
			t.Fatalf("%s: expected engine rejection, got %+v", engine, msg)
		}
	}
}

// TestWorkerBadSlots: a worker must ask for at least one slot.
func TestWorkerBadSlots(t *testing.T) {
	t.Parallel()
	if _, err := newWorker(slots(0)); err == nil {
		t.Error("zero slots accepted")
	}
	if err := Work("127.0.0.1:1", 0); err == nil {
		t.Error("zero slots accepted by Work")
	}
	if err := WorkLoop("127.0.0.1:1", slots(0)); err == nil {
		t.Error("zero slots accepted by WorkLoop")
	}
}

// TestWorkerReconnectsAfterServerRestart kills the server abruptly (no bye
// frame, as a crash or SIGKILL would) in the middle of a drain, restarts
// it on the same address, and asserts that the WorkLoop worker reconnects
// through its backoff schedule and finishes the new server's jobs — then
// exits cleanly when the server says bye.
func TestWorkerReconnectsAfterServerRestart(t *testing.T) {
	t.Parallel()
	specs := testSpecs()
	srv1, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()
	workerDone := make(chan error, 1)
	go func() { workerDone <- WorkLoop(addr, slots(1)) }()

	// A job completes against the first server: the worker is connected.
	if _, err := srv1.Execute(&specs[0]); err != nil {
		t.Fatalf("job on first server: %v", err)
	}

	// Kill it mid-drain, without the bye handshake.
	if err := srv1.closeAbrupt(); err != nil {
		t.Fatalf("abrupt close: %v", err)
	}
	select {
	case err := <-workerDone:
		t.Fatalf("worker exited on a dropped connection instead of reconnecting: %v", err)
	case <-time.After(200 * time.Millisecond):
	}

	// Restart on the same address (retry briefly: the old listener's port
	// may take a moment to free).
	var srv2 *Server
	for i := 0; i < 100; i++ {
		if srv2, err = Serve(addr); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()

	// The reconnected worker drains the restarted server's jobs, and the
	// results are byte-identical to local execution.
	local, err := slots(1).ExecuteJobs(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		res, err := srv2.Execute(&specs[i])
		if err != nil {
			t.Fatalf("job %d after restart: %v", i, err)
		}
		if string(res.AppendBinary(nil)) != string(local[i].AppendBinary(nil)) {
			t.Errorf("job %d after restart differs from local", i)
		}
	}

	// A graceful close ends the loop with nil.
	srv2.Close()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Errorf("worker exit after bye: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("worker did not exit after graceful server close")
	}
}

// TestHelloAckAdvertisesBye: the server's first frame after a valid hello
// is the capability ack promising the bye shutdown frame — what lets a
// worker treat every hangup without bye as a fault — and naming the job
// lease its checkpoint frames must beat.
func TestHelloAckAdvertisesBye(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, _ := json.Marshal(message{Type: "hello", Slots: 1, Engine: sim.EngineVersion})
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var msg message
	if err := readMessage(bufio.NewReader(conn), &msg); err != nil {
		t.Fatalf("no ack frame: %v", err)
	}
	if msg.Type != "hello-ack" || !msg.Bye || msg.Engine != sim.EngineVersion || msg.Lease <= 0 {
		t.Fatalf("expected hello-ack advertising bye and a lease, got %+v", msg)
	}
}

// TestWithinLease: a served Runner's wall-clock checkpoint trigger is the
// worker's own when that is shorter than half the lease, else half the
// lease; the cycle trigger and the worker's own policy are left alone.
func TestWithinLease(t *testing.T) {
	t.Parallel()
	lease := 2 * time.Minute
	own := &experiments.CheckpointPolicy{Every: 10 * time.Minute, EveryCycles: 2000}
	for _, tc := range []struct {
		pol  *experiments.CheckpointPolicy
		want experiments.CheckpointPolicy
	}{
		{nil, experiments.CheckpointPolicy{Every: time.Minute}},
		{own, experiments.CheckpointPolicy{Every: time.Minute, EveryCycles: 2000}},
		{&experiments.CheckpointPolicy{Every: 30 * time.Second}, experiments.CheckpointPolicy{Every: 30 * time.Second}},
	} {
		got := withinLease(experiments.Runner{Workers: 2, Checkpoint: tc.pol}, lease)
		if got.Workers != 2 || got.Checkpoint == nil || *got.Checkpoint != tc.want {
			t.Errorf("withinLease(%+v) = %+v, want %+v", tc.pol, got.Checkpoint, tc.want)
		}
	}
	if own.Every != 10*time.Minute {
		t.Errorf("withinLease rewrote the worker's own policy: %+v", own)
	}
}

// TestWorkLoopGivesUpWithoutServer: with nothing listening, the backoff
// schedule runs out instead of spinning forever. The schedule is
// compressed so the test does not wait out the production delays.
func TestWorkLoopGivesUpWithoutServer(t *testing.T) {
	t.Parallel()
	w := testWorker(t, slots(1))
	w.schedule = compressed()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // a dead address that was at least once valid
	start := time.Now()
	if err := w.loop(addr); err == nil {
		t.Fatal("loop returned nil with no server")
	}
	if elapsed := time.Since(start); elapsed < w.schedule.base {
		t.Errorf("loop gave up after %v, before any backoff", elapsed)
	}
}

// TestWorkLoopRejectionIsFinal: an engine-version rejection must not be
// retried — the mismatch cannot resolve itself.
func TestWorkLoopRejectionIsFinal(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dials := make(chan struct{}, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials <- struct{}{}
			rej, _ := json.Marshal(message{Type: "error", Error: "engine version mismatch"})
			conn.Write(append(rej, '\n'))
			conn.Close()
		}
	}()
	err = WorkLoop(ln.Addr().String(), slots(1))
	if err == nil || !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	if len(dials) != 1 {
		t.Errorf("worker dialed %d times after a rejection, want 1", len(dials))
	}
}
