package queue

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// crashSpecs is the harness grid: testSpecs stretched long enough that a
// job spans several checkpoint intervals and several kill windows.
func crashSpecs() []experiments.JobSpec {
	specs := testSpecs()
	for i := range specs {
		specs[i].Budget.Measure = 2500
	}
	return specs
}

// TestCrashInjectionBitIdentical is the preemption-tolerance guarantee:
// the chaos harness severs worker connections at seeded points mid-run —
// the wire shape of SIGKILLed workers — while WorkLoop workers reconnect
// and the server requeues lost jobs with their latest snapshots. The
// merged grid must still be byte-identical to an undisturbed local run,
// because a resumed simulation is bit-identical to an uninterrupted one
// and a job whose snapshot was lost simply restarts from zero.
func TestCrashInjectionBitIdentical(t *testing.T) {
	t.Parallel()
	specs := crashSpecs()
	local, err := experiments.Runner{Workers: 2}.ExecuteJobs(specs)
	if err != nil {
		t.Fatal(err)
	}

	worker := experiments.Runner{Workers: 2, Checkpoint: &experiments.CheckpointPolicy{EveryCycles: 200}}

	// Four seeded disconnects: each of the first four sessions dialed is
	// severed after a few frames.
	chaos := NewChaos(ChaosConfig{Seed: 7, Disconnects: 4})

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	workerDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		w := testWorker(t, worker)
		// Compressed: a worker killed just as the grid finishes must give
		// up on the closed server in milliseconds, not minutes.
		w.schedule = compressed()
		chaos.wrap(w)
		go func() { workerDone <- w.loop(srv.Addr()) }()
	}

	remote, err := experiments.Runner{Workers: 2, Execute: srv.Execute}.ExecuteJobs(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if string(local[i].AppendBinary(nil)) != string(remote[i].AppendBinary(nil)) {
			t.Errorf("job %d: crash-disturbed result differs from local", i)
		}
	}
	if chaos.Disconnected.Load() == 0 {
		t.Error("harness never severed a connection")
	}
	if srv.Stats().Crashed == 0 {
		t.Error("no worker exit tallied as crashed despite injected disconnects")
	}

	srv.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-workerDone:
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit after server close")
		}
	}
}

// TestWorkerDrainHandsOffSnapshot: a drain request (the worker's SIGTERM
// path) stops the in-flight job at its next inter-cycle point, ships a
// final snapshot, and ends the worker cleanly; the server tallies the
// exit as drained, requeues the job with that snapshot, and the next
// worker resumes it to the bit-identical result.
func TestWorkerDrainHandsOffSnapshot(t *testing.T) {
	t.Parallel()
	spec := crashSpecs()[3] // PolSP at 0.8: the busiest, longest job
	ref, err := experiments.Runner{}.RunSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}

	// Two worker generations, each a Runner with a drain flag of its own:
	// a drained process exits, and its successor starts with a fresh one.
	var sigterm atomic.Bool
	genA := experiments.Runner{Workers: 1, Checkpoint: &experiments.CheckpointPolicy{EveryCycles: 150}, Drain: &sigterm}
	genB := genA
	genB.Drain = new(atomic.Bool)

	// Proof the requeue-with-snapshot path ran: the successor is told the
	// size of the resume snapshot its job frame carries.
	resumed := make(chan int, 8)
	successor := testWorker(t, genB)
	successor.onResume = func(n int) {
		select {
		case resumed <- n:
		default:
		}
	}

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	aDone := make(chan error, 1)
	go func() { aDone <- WorkLoop(srv.Addr(), genA) }()

	type result struct {
		res *sim.Result
		err error
	}
	execDone := make(chan result, 1)
	go func() {
		res, err := srv.Execute(&spec)
		execDone <- result{res, err}
	}()

	// Wait until the job has shipped at least one snapshot, so the drain
	// lands mid-run with state worth handing off.
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().CheckpointFrames == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint frame arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}

	sigterm.Store(true)
	select {
	case err := <-aDone:
		if err != nil {
			t.Fatalf("draining worker exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain")
	}
	// The server tallies the exit on its own goroutine; give it a moment.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := srv.Stats()
		if st.Drained == 1 && st.Crashed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker exits drained=%d crashed=%d, want 1/0", st.Drained, st.Crashed)
		}
	}

	// A successor worker generation picks the job up with the snapshot.
	bDone := make(chan error, 1)
	go func() { bDone <- successor.loop(srv.Addr()) }()
	select {
	case n := <-resumed:
		if n == 0 {
			t.Error("resume snapshot was empty")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("requeued job carried no resume snapshot")
	}
	select {
	case got := <-execDone:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if string(got.res.AppendBinary(nil)) != string(ref.AppendBinary(nil)) {
			t.Error("drain-resumed result differs from undisturbed local run")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job never completed after drain handoff")
	}

	srv.Close()
	select {
	case <-bDone:
	case <-time.After(10 * time.Second):
		t.Fatal("successor worker did not exit after server close")
	}
}

// TestDurableCheckpointMatchesLocal: the .ckpt a durable server writes from
// a worker's ckpt frame is byte-identical to the one a local checkpointed
// run writes for the same spec at the same cycle — the server stores what
// the worker's engine shipped, as it was. Both sides resume one stored
// mid-run snapshot with the drain raised, so each ships its final snapshot
// at the cycle it resumed at: the server's path is the preloaded
// checkpoint, the job frame, the worker's resume, its ckpt frame and the
// persist; the local one is the store's checkpoint, the resume and the
// run's own put. Both files equal the snapshot they resumed from, which
// restores and captures back to itself.
func TestDurableCheckpointMatchesLocal(t *testing.T) {
	t.Parallel()
	spec := crashSpecs()[3]
	key := spec.Hash()
	policy := &experiments.CheckpointPolicy{EveryCycles: 400}
	var snaps [][]byte
	if _, err := (experiments.Runner{Checkpoint: policy}).RunSpecVia(&spec, nil, func(s []byte) error {
		snaps = append(snaps, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("%d snapshots: too few to pick one mid-run", len(snaps))
	}
	mid := snaps[len(snaps)/2]
	storeWith := func(snap []byte) *cache.Store {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := store.PutCheckpoint(key, snap); err != nil {
			t.Fatal(err)
		}
		return store
	}

	local := storeWith(mid)
	drained := experiments.Runner{Snapshots: local, Checkpoint: policy, Drain: new(atomic.Bool)}
	drained.Drain.Store(true)
	if _, err := drained.RunSpec(&spec); !errors.Is(err, sim.ErrCheckpointed) {
		t.Fatalf("local drained run returned %v, want ErrCheckpointed", err)
	}
	want, ok := local.GetCheckpoint(key)
	if !ok {
		t.Fatal("the local drained run left no checkpoint")
	}

	durable := storeWith(mid)
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{Store: durable})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Execute(&spec) // answered only by Close: the drained job waits for a worker
	// The drain rises once the job is taken, so the run resumes and
	// ships its final snapshot at once.
	w := testWorker(t, experiments.Runner{Workers: 1, Checkpoint: policy, Drain: new(atomic.Bool)})
	w.onJob = func(*experiments.JobSpec) (time.Duration, error) {
		w.r.Drain.Store(true)
		return 0, nil
	}
	if err := w.loop(srv.Addr()); err != nil {
		t.Fatalf("draining worker exited with error: %v", err)
	}
	waitFor(t, 10*time.Second, "the server to tally the drain", func() bool { return srv.Stats().Drained == 1 })
	if st := srv.Stats(); st.CheckpointFrames != 1 || st.PersistFailures != 0 {
		t.Fatalf("%d ckpt frames, %d persist failures; want 1 and 0", st.CheckpointFrames, st.PersistFailures)
	}
	got, ok := durable.GetCheckpoint(key)
	if !ok {
		t.Fatal("the durable server persisted no checkpoint")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the server's .ckpt (%d bytes) differs from the local run's (%d bytes)", len(got), len(want))
	}
	if !bytes.Equal(want, mid) {
		t.Error("a resumed run's final snapshot differs from the snapshot it resumed from")
	}
}
