package queue

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestBackoffDelayJitteredAndCapped: the reconnect schedule never exceeds
// its cap or undershoots its base, is deterministic per seed, and differs
// between seeds — a restarted server sees its fleet trickle back, not
// stampede in lockstep.
func TestBackoffDelayJitteredAndCapped(t *testing.T) {
	t.Parallel()
	for _, b := range []backoff{testWorker(t, slots(1)).schedule, compressed()} {
		for seed := uint64(1); seed <= 8; seed++ {
			for attempt := 0; attempt <= 64; attempt++ {
				if d := b.delay(attempt, seed); d < b.base || d > b.max {
					t.Fatalf("attempt %d seed %d: delay %v outside [%v, %v]", attempt, seed, d, b.base, b.max)
				}
			}
		}
		if b.delay(3, 42) != b.delay(3, 42) {
			t.Error("backoff is not deterministic for a fixed seed")
		}
		diverged := false
		for a := 0; a < 10 && !diverged; a++ {
			diverged = b.delay(a, 1) != b.delay(a, 2)
		}
		if !diverged {
			t.Errorf("%+v: different seeds never diverge: jitter is not doing its job", b)
		}
	}
}

// fleet runs workers under one chaos harness against addr and replaces
// any the harness kills (or that gave up during a restart window), up to
// maxSpawns lifetime spawns. Stop() ends replacement; Wait() joins the
// survivors.
type fleet struct {
	t         *testing.T
	addr      string
	r         experiments.Runner // every worker's, replacements included
	chaos     *Chaos             // likewise
	maxSpawns int
	spawns    atomic.Int64
	stopping  atomic.Bool
	wg        sync.WaitGroup
}

func startFleet(t *testing.T, addr string, n int, r experiments.Runner, chaos *Chaos, maxSpawns int) *fleet {
	f := &fleet{t: t, addr: addr, r: r, chaos: chaos, maxSpawns: maxSpawns}
	for i := 0; i < n; i++ {
		f.spawn()
	}
	return f
}

func (f *fleet) spawn() {
	if f.stopping.Load() || int(f.spawns.Add(1)) > f.maxSpawns {
		return
	}
	w, err := newWorker(f.r) // a replacement is a new identity
	if err != nil {
		f.t.Error(err)
		return
	}
	w.schedule = compressed()
	f.chaos.wrap(w)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		err := w.loop(f.addr)
		if err != nil && !f.stopping.Load() {
			f.t.Logf("worker exited: %v (spawning replacement)", err)
			f.spawn()
		}
	}()
}

func (f *fleet) Stop() { f.stopping.Store(true) }
func (f *fleet) Wait() { f.wg.Wait() }

// TestWorkersAreIndependent: a worker is a value, so two of them share a
// process and nothing else. One serves its grid under a harness that severs
// its connections and corrupts a result, reconnecting on the compressed
// schedule; the other, at the same time, serves another server on the
// production schedule with no harness. The faults land on the first
// worker's server alone, the second server sees none, and both grids are
// byte-identical to local runs.
func TestWorkersAreIndependent(t *testing.T) {
	t.Parallel()
	chaos := NewChaos(ChaosConfig{Seed: 13, Disconnects: 2, CorruptResults: 1})
	harried := testWorker(t, experiments.Runner{Workers: 1, Checkpoint: &experiments.CheckpointPolicy{EveryCycles: 200}})
	harried.schedule = compressed()
	chaos.wrap(harried)
	calm := testWorker(t, slots(1))
	if harried.schedule == calm.schedule || harried.seed == calm.seed || harried.name == calm.name {
		t.Fatalf("the two workers share a schedule, a seed or a name: %+v %+v", harried, calm)
	}

	type side struct {
		w     *worker
		specs []experiments.JobSpec
		srv   *Server
		done  chan error
	}
	sides := []*side{{w: harried, specs: crashSpecs()}, {w: calm, specs: testSpecs()}}
	var grids sync.WaitGroup
	for _, sd := range sides {
		srv, err := Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sd.srv, sd.done = srv, make(chan error, 1)
		go func() { sd.done <- sd.w.loop(srv.Addr()) }()
		grids.Add(1)
		go func() {
			defer grids.Done()
			local, err := slots(1).ExecuteJobs(sd.specs)
			if err != nil {
				t.Error(err)
				return
			}
			remote, err := experiments.Runner{Workers: 2, Execute: srv.Execute}.ExecuteJobs(sd.specs)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range local {
				if string(local[i].AppendBinary(nil)) != string(remote[i].AppendBinary(nil)) {
					t.Errorf("%s job %d: result differs from local", sd.w.name, i)
				}
			}
		}()
	}
	grids.Wait()

	if chaos.Disconnected.Load() == 0 || chaos.Corrupted.Load() != 1 {
		t.Errorf("harness severed %d connections and corrupted %d results, want >= 1 and 1",
			chaos.Disconnected.Load(), chaos.Corrupted.Load())
	}
	if st := sides[0].srv.Stats(); st.Crashed == 0 || st.CorruptFrames != 1 {
		t.Errorf("the harried worker's server missed its faults: %+v", st)
	}
	if st := sides[1].srv.Stats(); st != (Stats{}) {
		t.Errorf("the calm worker's server saw faults that were not its worker's: %+v", st)
	}
	for _, sd := range sides {
		sd.srv.Close()
		select {
		case err := <-sd.done:
			if err != nil {
				t.Errorf("%s exit: %v", sd.w.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s did not exit after server close", sd.w.name)
		}
	}
}

// TestSilentWorkerLosesJobs: a worker that handshakes and then falls
// silent (a wedged process, a dead host behind a
// live TCP window) is severed after a few missed intervals; its job
// requeues and a healthy worker completes it to the bit-identical result.
func TestSilentWorkerLosesJobs(t *testing.T) {
	t.Parallel()
	spec := testSpecs()[0]
	ref, err := experiments.Runner{}.RunSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := ServeWith("127.0.0.1:0", ServeOpts{heartbeat: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The silent worker: a real hello, then nothing — not one heartbeat.
	silent, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if err := writeMessage(silent, &message{Type: "hello", Proto: protoVersion, Slots: 1,
		Engine: sim.EngineVersion, Name: "silent-worker"}); err != nil {
		t.Fatal(err)
	}

	type result struct {
		res *sim.Result
		err error
	}
	execDone := make(chan result, 1)
	go func() {
		res, err := srv.Execute(&spec)
		execDone <- result{res, err}
	}()
	// Let the job land on the silent worker before a healthy one exists.
	time.Sleep(60 * time.Millisecond)
	workerDone := make(chan error, 1)
	go func() { workerDone <- WorkLoop(srv.Addr(), slots(1)) }()

	select {
	case got := <-execDone:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if string(got.res.AppendBinary(nil)) != string(ref.AppendBinary(nil)) {
			t.Error("result via silent-worker recovery differs from local run")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job never completed after the silent worker was severed")
	}
	st := srv.Stats()
	if st.Crashed == 0 {
		t.Errorf("silent worker not tallied as crashed: %+v", st)
	}
	if st.Requeues == 0 {
		t.Errorf("silent worker's job was never requeued: %+v", st)
	}

	srv.Close()
	select {
	case <-workerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("healthy worker did not exit after server close")
	}
}

// TestStalledWorkerLeaseRevokedAndFenced: a worker that stalls on a job
// past its lease — heartbeats flowing, zero progress — loses the lease;
// the job re-dispatches and the grid stays byte-identical. When the
// stalled worker finally answers, the fencing token drops the zombie
// result on the floor.
func TestStalledWorkerLeaseRevokedAndFenced(t *testing.T) {
	t.Parallel()
	specs := crashSpecs()[:2]
	local, err := slots(2).ExecuteJobs(specs)
	if err != nil {
		t.Fatal(err)
	}

	chaos := NewChaos(ChaosConfig{Seed: 5, StallLabel: specs[0].String(), StallFor: 900 * time.Millisecond})

	// A job that merely runs slowly renews its 230 ms lease every 200
	// cycles and every half lease; should a starved CPU cost it the lease
	// anyway, its slot stays busy until the revoked run answers, so the
	// re-dispatch waits for a free slot instead of in a worker's queue.
	// The heartbeat is slow on purpose: the zombie needs the stalled
	// worker's link alive through the stall, and four missed 250 ms beats
	// are a second, which CPU starvation under the race detector does not
	// reach; the sweep, half a beat, still revokes well inside the 900 ms
	// stall.
	worker := experiments.Runner{Workers: 1, Checkpoint: &experiments.CheckpointPolicy{EveryCycles: 200}}
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{heartbeat: 250 * time.Millisecond, lease: 230 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	workerDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		w := testWorker(t, worker)
		chaos.wrap(w)
		go func() { workerDone <- w.loop(srv.Addr()) }()
	}

	remote, err := experiments.Runner{Workers: 2, Execute: srv.Execute}.ExecuteJobs(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if string(local[i].AppendBinary(nil)) != string(remote[i].AppendBinary(nil)) {
			t.Errorf("job %d: stall-disturbed result differs from local", i)
		}
	}
	if chaos.Stalled.Load() != 1 {
		t.Errorf("stall fired %d times, want 1", chaos.Stalled.Load())
	}
	if st := srv.Stats(); st.LeasesRevoked == 0 {
		t.Errorf("stalled job's lease was never revoked: %+v", st)
	}
	// The stalled worker wakes and answers its original dispatch late; the
	// fence must drop it.
	for deadline := time.Now().Add(15 * time.Second); srv.Stats().ZombiesDropped == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("no zombie result was fenced off: %+v", srv.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}

	srv.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-workerDone:
		case <-time.After(15 * time.Second):
			t.Fatal("worker did not exit after server close")
		}
	}
}

// TestRevokedRunKeepsItsSlot: revoking a lease does not stop the run that
// held it, so the slot stays busy until that run answers. One worker, one
// slot. Job a stalls past its lease and is revoked; b takes the slot, and
// a's stalled run wakes and queues behind it on the worker. Were the slot
// freed at the revocation, a's re-dispatch would queue behind a's own
// stale run, its lease would run out unrenewed — a runs longer than a
// lease, renewing it only while running — and so on for every
// re-dispatch: the grid would never finish. Kept busy, the slot takes the
// stale run, then b, then a once more.
func TestRevokedRunKeepsItsSlot(t *testing.T) {
	t.Parallel()
	spec := func(label string, measure int64, seed uint64) *experiments.JobSpec {
		return &experiments.JobSpec{
			Label: label, Topo: topo.Spec{Kind: topo.KindHyperX, Dims: []int{4, 4}},
			Per: 4, Mechanism: "PolSP", Pattern: "Uniform", VCs: 4, Load: 0.8,
			Budget: experiments.Budget{Warmup: 200, Measure: measure},
			Seed:   seed, PatternSeed: 41,
		}
	}
	// Sizes, 2-CPU Xeon at -cpu 1: a runs ~470 ms, b ~340 ms, both ship a
	// checkpoint every ~6 ms against a 200 ms lease; the stall outlasts
	// the lease and the sweep but not b's run. The network is small so a
	// checkpoint stays cheap next to the lease under the race detector too.
	a, b := spec("livelock-a", 39000, 1), spec("livelock-b", 30000, 2)
	chaos := NewChaos(ChaosConfig{Seed: 1, StallLabel: a.String(), StallFor: 400 * time.Millisecond})
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{heartbeat: 250 * time.Millisecond, lease: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	w := testWorker(t, experiments.Runner{Workers: 1, Checkpoint: &experiments.CheckpointPolicy{EveryCycles: 500}})
	chaos.wrap(w)
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.loop(srv.Addr()) }()

	done := make(chan error, 2)
	execute := func(spec *experiments.JobSpec) {
		_, err := srv.Execute(spec)
		done <- err
	}
	// a first, alone: b must find the slot taken by a's stalled dispatch.
	go execute(a)
	for deadline := time.Now().Add(10 * time.Second); chaos.Stalled.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stalled job never reached the worker")
		}
	}
	go execute(b)
	timeout := time.After(90 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatalf("grid not finished: a revoked run's slot was handed out again (livelock): %+v", srv.Stats())
		}
	}
	if st := srv.Stats(); st.LeasesRevoked == 0 || st.ZombiesDropped == 0 {
		t.Errorf("the stalled job was not revoked and fenced: %+v", st)
	}

	srv.Close()
	select {
	case <-workerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after server close")
	}
}

// TestLongRunKeepsItsLease: a job whose run takes several lease terms,
// served to a worker whose Runner has no checkpoint policy, finishes on
// its first dispatch. The worker caps its wall-clock checkpoint trigger at
// half the lease the hello-ack names, so the run's ckpt frames keep
// renewing the lease; were the lease a guess at the run's length instead,
// the job would be revoked, re-dispatched to the same worker and revoked
// again until the deadline.
func TestLongRunKeepsItsLease(t *testing.T) {
	t.Parallel()
	// ~1.4 s on the 2-CPU Xeon at -cpu 1: nearly three leases, and more
	// than a lease plus a sweep tick, so a run that ships no ckpt frame is
	// always revoked. Half a lease leaves a ckpt frame ~250 ms of slack
	// (~175 ms apart under the race detector).
	spec := &experiments.JobSpec{
		Label: "long-run", Topo: topo.Spec{Kind: topo.KindHyperX, Dims: []int{4, 4}},
		Per: 4, Mechanism: "PolSP", Pattern: "Uniform", VCs: 4, Load: 0.8,
		Budget: experiments.Budget{Warmup: 200, Measure: 150000},
		Seed:   3, PatternSeed: 41,
	}
	local, err := slots(1).RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{lease: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	workerDone := make(chan error, 1)
	go func() { workerDone <- testWorker(t, slots(1)).loop(srv.Addr()) }()

	type result struct {
		res *sim.Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := srv.Execute(spec)
		done <- result{res, err}
	}()
	select {
	case got := <-done:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if string(got.res.AppendBinary(nil)) != string(local.AppendBinary(nil)) {
			t.Error("served result differs from the local run")
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("job never finished: its lease ran out between checkpoints (livelock): %+v", srv.Stats())
	}
	if st := srv.Stats(); st.LeasesRevoked != 0 || st.CheckpointFrames < 1 {
		t.Errorf("want no revocation and at least one ckpt frame: %+v", st)
	}

	srv.Close()
	select {
	case <-workerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after server close")
	}
}

// TestPoisonJobQuarantined: a spec that kills every worker it touches is
// pulled from circulation after costing defaultPoisonAttempts distinct
// workers, with the full custody history on the error; the rest of the
// grid completes bit-identically around the hole.
func TestPoisonJobQuarantined(t *testing.T) {
	t.Parallel()
	specs := testSpecs()
	local, err := slots(2).ExecuteJobs(specs)
	if err != nil {
		t.Fatal(err)
	}
	poison := specs[0]
	poison.Seed += 1000 // semantically distinct: its own hash, its own fate
	poison.Label = "poison-job"
	grid := append(append([]experiments.JobSpec(nil), specs...), poison)

	chaos := NewChaos(ChaosConfig{Seed: 3, PoisonLabel: "poison-job"})

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	workers := startFleet(t, srv.Addr(), 2, slots(1), chaos, 10)

	results, holes, err := experiments.Runner{Workers: 2, Execute: srv.Execute}.ExecuteJobsPartial(nil, grid)
	if err != nil {
		t.Fatal(err)
	}
	q := holes[len(grid)-1]
	if q == nil {
		t.Fatal("poison spec was not quarantined")
	}
	if !errors.Is(q, experiments.ErrQuarantined) {
		t.Error("quarantine error does not unwrap to ErrQuarantined")
	}
	if len(q.Attempts) != defaultPoisonAttempts {
		t.Errorf("quarantine after %d attempts, want %d: %v", len(q.Attempts), defaultPoisonAttempts, q)
	}
	distinct := make(map[string]bool)
	for _, a := range q.Attempts {
		distinct[a.Worker] = true
		if a.Fate != "worker-lost" {
			t.Errorf("poison attempt fate %q, want worker-lost", a.Fate)
		}
	}
	if len(distinct) != defaultPoisonAttempts {
		t.Errorf("quarantine cost %d distinct workers, want %d: %v", len(distinct), defaultPoisonAttempts, q)
	}
	if results[len(grid)-1] != nil {
		t.Error("quarantined spec produced a result")
	}
	for i := range specs {
		if holes[i] != nil {
			t.Errorf("innocent job %d quarantined: %v", i, holes[i])
			continue
		}
		if string(local[i].AppendBinary(nil)) != string(results[i].AppendBinary(nil)) {
			t.Errorf("job %d: poison-disturbed result differs from local", i)
		}
	}
	if st := srv.Stats(); st.Quarantined != 1 {
		t.Errorf("stats quarantined = %d, want 1: %+v", st.Quarantined, st)
	}
	if got := chaos.Poisoned.Load(); got != int64(defaultPoisonAttempts) {
		t.Errorf("poison killed %d workers, want %d", got, defaultPoisonAttempts)
	}

	workers.Stop()
	srv.Close()
	workers.Wait()
}

// TestChaosPropertyBitIdentical is the acceptance property of the
// failure model: under one seeded schedule of worker disconnects, a
// stalled worker (lease revocation + zombie fencing), a corrupted and a
// truncated result frame, a poison spec, and an abrupt server
// kill/restart mid-grid, the merged non-quarantined results are
// byte-identical to an undisturbed local run and the poison spec is
// quarantined with its full cross-restart attempt history.
func TestChaosPropertyBitIdentical(t *testing.T) {
	t.Parallel()
	specs := crashSpecs()
	poison := specs[0]
	poison.Seed += 7777
	poison.Label = "poison-property"
	grid := append(append([]experiments.JobSpec(nil), specs...), poison)

	// Baseline before the shared store exists: a plain local run.
	baseline, err := slots(2).ExecuteJobs(specs)
	if err != nil {
		t.Fatal(err)
	}

	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	worker := experiments.Runner{Workers: 1, Cache: store, Checkpoint: &experiments.CheckpointPolicy{EveryCycles: 200}}

	chaos := NewChaos(ChaosConfig{
		Seed:           11,
		Disconnects:    2,
		CorruptResults: 1,
		TruncateFrames: 1,
		PoisonLabel:    "poison-property",
		StallLabel:     specs[1].String(),
		StallFor:       900 * time.Millisecond,
	})

	// poisonAttempts exceeds the worst case of every non-poison fault
	// (2 disconnects + 1 truncate + 1 corrupt + 1 stall identity) landing
	// on one innocent spec, so only true poison quarantines.
	opts := ServeOpts{
		Store:          store,
		poisonAttempts: 6,
		heartbeat:      100 * time.Millisecond,
		lease:          230 * time.Millisecond,
	}
	srv1, err := ServeWith("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	addr := srv1.Addr()
	workers := startFleet(t, addr, 2, worker, chaos, 14)

	// The executor trampoline survives the server swap mid-grid.
	var cur atomic.Pointer[Server]
	cur.Store(srv1)
	submit := experiments.Runner{Workers: 2, Cache: store, Execute: func(spec *experiments.JobSpec) (*sim.Result, error) {
		return cur.Load().Execute(spec)
	}}

	// The grid retries across the server restart, exactly like the CLI
	// being re-invoked: completed points come back from the cache,
	// in-flight ones from their persisted checkpoints.
	type gridOut struct {
		res   []*sim.Result
		holes []*experiments.QuarantineError
		err   error
	}
	gridDone := make(chan gridOut, 1)
	go func() {
		var out gridOut
		for attempt := 0; attempt < 20; attempt++ {
			out.res, out.holes, out.err = submit.ExecuteJobsPartial(nil, grid)
			if out.err == nil || !strings.Contains(out.err.Error(), "server closed") {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		gridDone <- out
	}()

	// Kill the server once the chaos has demonstrably bitten: a severed
	// connection (both disconnects are booked on the first two sessions
	// dialed, and a kill that got there first would end them uncut), a
	// crashed worker and a persisted checkpoint. The stalled spec holds the
	// grid open meanwhile (its worker sleeps on it until a disconnect or
	// the lease takes it away), so the kill lands mid-grid.
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := srv1.Stats()
		if chaos.Disconnected.Load() >= 1 && st.Crashed >= 1 && st.CheckpointFrames >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaos preconditions never met before kill: %d severed, %+v", chaos.Disconnected.Load(), st)
		}
	}
	if err := srv1.closeAbrupt(); err != nil {
		t.Fatal(err)
	}
	st1 := srv1.Stats()

	// Restart on the same address with the same store: the journal replays
	// the predecessor's attempts and quarantines.
	var srv2 *Server
	for attempt := 0; ; attempt++ {
		srv2, err = ServeWith(addr, opts)
		if err == nil {
			break
		}
		if attempt > 200 {
			t.Fatalf("could not rebind restarted server: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer srv2.Close()
	cur.Store(srv2)

	var out gridOut
	select {
	case out = <-gridDone:
	case <-time.After(120 * time.Second):
		t.Fatal("grid never completed across the restart")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}

	// The poison spec is a hole with the full cross-restart history; every
	// innocent spec completed byte-identically.
	q := out.holes[len(grid)-1]
	if q == nil {
		t.Fatal("poison spec was not quarantined")
	}
	if len(q.Attempts) < opts.poisonAttempts {
		t.Errorf("quarantine history has %d attempts, want >= %d: %v", len(q.Attempts), opts.poisonAttempts, q)
	}
	distinct := make(map[string]bool)
	for _, a := range q.Attempts {
		distinct[a.Worker] = true
	}
	if len(distinct) < opts.poisonAttempts {
		t.Errorf("quarantine cost %d distinct workers, want >= %d: %v", len(distinct), opts.poisonAttempts, q)
	}
	if out.res[len(grid)-1] != nil {
		t.Error("quarantined spec produced a result")
	}
	for i := range specs {
		if out.holes[i] != nil {
			t.Errorf("innocent job %d quarantined: %v", i, out.holes[i])
			continue
		}
		if out.res[i] == nil {
			t.Errorf("job %d missing from merged grid", i)
			continue
		}
		if string(baseline[i].AppendBinary(nil)) != string(out.res[i].AppendBinary(nil)) {
			t.Errorf("job %d: chaos-disturbed result differs from undisturbed local run", i)
		}
	}

	// The schedule actually fired, and the servers saw it.
	if chaos.Disconnected.Load() == 0 {
		t.Error("no connection was severed")
	}
	if chaos.Corrupted.Load() == 0 {
		t.Error("no result frame was corrupted")
	}
	if chaos.Truncated.Load() == 0 {
		t.Error("no frame was truncated")
	}
	if chaos.Stalled.Load() != 1 {
		t.Errorf("stall fired %d times, want 1", chaos.Stalled.Load())
	}
	if chaos.Poisoned.Load() < int64(opts.poisonAttempts) {
		t.Errorf("poison killed %d workers, want >= %d", chaos.Poisoned.Load(), opts.poisonAttempts)
	}
	st2 := srv2.Stats()
	if st1.Crashed+st2.Crashed == 0 {
		t.Error("no worker tallied as crashed")
	}
	if st1.CorruptFrames+st2.CorruptFrames == 0 {
		t.Errorf("no corrupt frame detected server-side: phase1 %+v phase2 %+v", st1, st2)
	}
	if st1.Quarantined+st2.Quarantined == 0 {
		t.Error("no quarantine tallied server-side")
	}
	if st1.Requeues+st2.Requeues == 0 {
		t.Error("no requeue tallied server-side")
	}

	// The journal on disk carries the poison spec's attempts and its
	// quarantine across the kill.
	matches, err := filepath.Glob(filepath.Join(store.Dir(), "*", "grid.journal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("grid journal not found under the store: %v %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"op":"attempt"`) {
		t.Error("journal holds no attempt records")
	}
	if !strings.Contains(string(data), `"op":"quarantine"`) {
		t.Error("journal holds no quarantine record")
	}

	workers.Stop()
	srv2.Close()
	workers.Wait()
}
