package queue

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
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

// The /1 hello and ack: the handshake lines of the builds before the
// protocol word, capability bits and all. Pinned so that a fleet of mixed
// builds is shown refused both ways.
const (
	helloV1 = `{"type":"hello","slots":2,"engine":"hyperx-sim/4","name":"w123-1","ckptCap":true,"hbCap":true}`
	ackV1   = `{"type":"hello-ack","engine":"hyperx-sim/4","bye":true,"ckptCap":true,"hb":2000,"lease":120000}`
)

// TestWorkerEngineMismatch: the handshake rejects a worker advertising a
// different engine version (it would merge divergent rows) — an unknown
// one, and the hyperx-sim/3 that an older build's worker advertises when
// started on its retired per-cycle-generation engine — or speaking another
// queue protocol, as the /1 hello does. The error frame names both sides'
// words.
func TestWorkerEngineMismatch(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hello := func(engine string) string {
		line, _ := json.Marshal(message{Type: "hello", Proto: protoVersion, Slots: 1, Engine: engine})
		return string(line)
	}
	for _, tc := range []struct {
		hello string
		want  []string
	}{
		{hello("ancient-sim/0"), []string{`engine "ancient-sim/0"`, strconv.Quote(sim.EngineVersion)}},
		{hello("hyperx-sim/3"), []string{`engine "hyperx-sim/3"`, strconv.Quote(sim.EngineVersion)}},
		{helloV1, []string{`queue protocol ""`, strconv.Quote(protoVersion)}},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(tc.hello + "\n")); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var msg message
		if err := readMessage(bufio.NewReader(conn), &msg); err != nil {
			t.Fatalf("%s: no rejection frame: %v", tc.hello, err)
		}
		if msg.Type != "error" {
			t.Fatalf("%s: expected a rejection, got %+v", tc.hello, msg)
		}
		for _, want := range tc.want {
			if !strings.Contains(msg.Error, want) {
				t.Errorf("%s: rejection %q does not name %s", tc.hello, msg.Error, want)
			}
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

// TestHelloAckNamesProtocol: the server's first frame after a valid hello
// is the ack naming the protocol word, the heartbeat interval the worker
// keeps and the job lease its checkpoint frames must beat — exactly this
// line, with no capability bits.
func TestHelloAckNamesProtocol(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := dialHello(t, srv.Addr(), message{Slots: 1})
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no ack frame: %v", err)
	}
	want := fmt.Sprintf(`{"type":"hello-ack","proto":"hyperx-queue/2","engine":%q,"hb":2000,"lease":120000}`+"\n", sim.EngineVersion)
	if line != want {
		t.Fatalf("ack\n got %s want %s", line, want)
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

// TestWorkLoopRejectionIsFinal: a refused handshake must not be retried —
// the mismatch cannot resolve itself. The server may refuse the hello
// with an error frame, or the worker refuses the ack: the /1 ack of a
// build before the protocol word, or one naming no heartbeat interval or
// no lease, which would leave it nothing to beat at (a panic, for a
// ticker) and no lease to checkpoint within. Each is ErrRejected after
// one session.
func TestWorkLoopRejectionIsFinal(t *testing.T) {
	t.Parallel()
	line := func(msg message) string {
		data, _ := json.Marshal(msg)
		return string(data)
	}
	ack := func(hb, lease int64) string {
		return line(message{Type: "hello-ack", Proto: protoVersion, Engine: sim.EngineVersion, HB: hb, Lease: lease})
	}
	for _, tc := range []struct{ name, answer string }{
		{"error frame", line(message{Type: "error", Error: "engine version mismatch"})},
		{"v1 ack", ackV1},
		{"hb 0", ack(0, 120000)},
		{"lease 0", ack(2000, 0)},
		{"hb negative", ack(-2000, 120000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
					_, _ = bufio.NewReader(conn).ReadString('\n') // the hello
					_, _ = conn.Write([]byte(tc.answer + "\n"))
					conn.Close()
				}
			}()
			w := testWorker(t, slots(1))
			w.schedule = compressed()
			done := make(chan error, 1)
			go func() { done <- w.loop(ln.Addr().String()) }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrRejected) {
					t.Fatalf("want ErrRejected, got %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the worker took the answer and kept reconnecting")
			}
			if len(dials) != 1 {
				t.Errorf("worker dialed %d times after a refused handshake, want 1", len(dials))
			}
		})
	}
}
