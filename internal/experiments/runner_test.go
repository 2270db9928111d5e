package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
)

func TestRunJobsErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	_, err := RunJobs(2, 10, func(i int) (int, error) {
		if i%2 == 1 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

// TestRunJobsCollectsAllErrors: a failing grid reports every broken point
// (joined in job order), not just the lowest-indexed one, and still runs
// every job.
func TestRunJobsCollectsAllErrors(t *testing.T) {
	var ran atomic.Int32
	_, err := RunJobs(3, 9, func(i int) (int, error) {
		ran.Add(1)
		if i%3 == 0 {
			return 0, fmt.Errorf("job %d broke", i)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if ran.Load() != 9 {
		t.Errorf("only %d jobs ran; failures must not abort the grid", ran.Load())
	}
	for _, want := range []string{"job 0 broke", "job 3 broke", "job 6 broke"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	// Errors surface in job order regardless of scheduling.
	text := err.Error()
	if strings.Index(text, "job 0") > strings.Index(text, "job 3") ||
		strings.Index(text, "job 3") > strings.Index(text, "job 6") {
		t.Errorf("errors out of job order: %v", err)
	}
}

// TestRunJobsClaimsEachIndexOnce: workers claim indices off the shared
// counter, so every index runs exactly once, results land in job order and
// no more jobs run at once than there are workers — with many more jobs than
// workers, with more workers than jobs, and with no jobs at all.
func TestRunJobsClaimsEachIndexOnce(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ workers, n int }{{3, 20}, {8, 10000}, {16, 5}, {4, 0}} {
		runs := make([]atomic.Int32, c.n)
		var inFlight, peak atomic.Int32
		results, err := RunJobs(c.workers, c.n, func(i int) (int, error) {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for old := peak.Load(); cur > old && !peak.CompareAndSwap(old, cur); old = peak.Load() {
			}
			runs[i].Add(1)
			return i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d n=%d: %v", c.workers, c.n, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times, want once", c.workers, c.n, i, got)
			}
			if results[i] != i {
				t.Fatalf("workers=%d n=%d: result %d = %d (order not preserved)", c.workers, c.n, i, results[i])
			}
		}
		if p := peak.Load(); int(p) > min(c.workers, c.n) {
			t.Errorf("workers=%d n=%d: %d jobs ran at once", c.workers, c.n, p)
		}
	}
}

// BenchmarkRunJobsDispatch is the pool's own per-job cost: a two-worker
// RunJobs over 1000 jobs that return at once, and over 1000 that spin for
// ~5 µs each (about a warm cache hit). ns/job is the grid's time per job.
func BenchmarkRunJobsDispatch(b *testing.B) {
	const n = 1000
	spin := func(i int) (int, error) {
		for start := time.Now(); time.Since(start) < 5*time.Microsecond; {
		}
		return i, nil
	}
	for _, c := range []struct {
		name string
		job  func(int) (int, error)
	}{{"noop", func(i int) (int, error) { return i, nil }}, {"5us", spin}} {
		b.Run(c.name, func(b *testing.B) {
			job := c.job
			b.ReportAllocs()
			for b.Loop() {
				if _, err := RunJobs(2, n, job); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/job")
		})
	}
}

func TestJobSeedIndependentStable(t *testing.T) {
	if JobSeed(1, 0) == JobSeed(1, 1) {
		t.Error("adjacent job seeds collide")
	}
	if JobSeed(1, 3) != JobSeed(1, 3) {
		t.Error("job seed not stable")
	}
	if JobSeed(1, 3) == JobSeed(2, 3) {
		t.Error("base seed ignored")
	}
}

// TestAdaptiveRunWorkersReadsItsOwnGrid covers the intra-run worker policy:
// fixed counts pass through; the adaptive policy splits the CPUs across the
// pool of the grid the run belongs to — the Runner's bound capped by that
// grid's job count, not whichever grid ran last — caps at the switch count,
// and stays sequential on small networks or saturated pools.
func TestAdaptiveRunWorkersReadsItsOwnGrid(t *testing.T) {
	t.Parallel()
	if got := (Runner{RunWorkers: 3}).runWorkersFor(1 << 20); got != 3 {
		t.Errorf("fixed policy returned %d, want 3", got)
	}
	cpus := runtime.GOMAXPROCS(0)
	want := min(cpus, 512)
	if want <= 1 {
		want = 0
	}
	// A wide pool bound and a one-job grid: the job gets every CPU.
	wide := Runner{Workers: 8 * cpus, RunWorkers: -1}
	if got := wide.forGrid(1).runWorkersFor(512); got != want {
		t.Errorf("adaptive single-job grid: %d workers for 512 switches on %d CPUs, want %d", got, cpus, want)
	}
	if got := wide.forGrid(1).runWorkersFor(16); got != 0 {
		t.Errorf("adaptive policy sharded a tiny network: %d", got)
	}
	// The same Runner on a grid that fills the pool leaves nothing over,
	// and neither reading disturbed the other: each saw its own grid.
	if got := wide.forGrid(1000).runWorkersFor(512); got != 0 {
		t.Errorf("adaptive policy oversubscribed a saturated pool: %d", got)
	}
	if got := wide.forGrid(1).runWorkersFor(512); got != want {
		t.Errorf("a later grid changed the single-job grid's answer: %d, want %d", got, want)
	}
	if got := (Runner{RunWorkers: -1}).forGrid(1).runWorkersFor(1 << 20); got > cpus {
		t.Errorf("adaptive policy exceeds CPU count: %d", got)
	}
}

// TestLoadSweepDeterministicAcrossWorkers is the regression test for the
// runner's core guarantee: sweep rows are byte-identical whether the grid
// runs on one worker or many.
func TestLoadSweepDeterministicAcrossWorkers(t *testing.T) {
	g := SweepGrid(SweepConfig{
		H:          tiny2D(),
		Mechanisms: []string{"Minimal", "PolSP"},
		Patterns:   []string{"Uniform", "Dimension Complement Reverse"},
		Loads:      []float64{0.3, 0.9},
		Budget:     Budget{Warmup: 300, Measure: 600},
		Seed:       21,
	})
	rowsSeq, rowsPar := runSeqAndPar(t, g)
	if a, b := RenderSweep("t", rowsSeq), RenderSweep("t", rowsPar); a != b {
		t.Fatal("rendered sweeps are not byte-identical")
	}
}

// runSeqAndPar runs g on one worker and on eight and fails the test unless
// the rows are deeply equal.
func runSeqAndPar[R any](t *testing.T, g Grid[R]) (seq, par []R) {
	t.Helper()
	seq, err := Run(Runner{Workers: 1}, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	par, err = Run(Runner{Workers: 8}, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("rows differ between workers=1 and workers=8:\n%v\nvs\n%v", seq, par)
	}
	return seq, par
}

// TestFig6DeterministicAcrossWorkers extends the determinism guarantee to a
// fault experiment, whose jobs additionally carry fault-set prefixes.
func TestFig6DeterministicAcrossWorkers(t *testing.T) {
	rowsSeq, rowsPar := runSeqAndPar(t, Fig6Grid(Fig6Config{
		H:         tiny3D(),
		MaxFaults: 10,
		Step:      5,
		Patterns:  []string{"Uniform"},
		Budget:    Budget{Warmup: 300, Measure: 600},
		Seed:      2,
	}))
	if a, b := RenderFig6("t", rowsSeq), RenderFig6("t", rowsPar); a != b {
		t.Fatal("rendered fault sweeps are not byte-identical")
	}
}

// TestShapesDeterministicAcrossWorkers covers the healthy-reference
// cross-linking of the shape grid.
func TestShapesDeterministicAcrossWorkers(t *testing.T) {
	runSeqAndPar(t, ShapesGrid(ShapesConfig{
		H:        tiny2D(),
		Patterns: []string{"Uniform"},
		Budget:   Budget{Warmup: 300, Measure: 600},
		Seed:     3,
	}))
}

// TestRunProgressContract: Run announces the grid with progress(0, n) before
// any job runs, then reports once per job, and the counts reach n — for a
// sequential pool and a concurrent one.
func TestRunProgressContract(t *testing.T) {
	t.Parallel()
	var started atomic.Int32 // jobs that have reached the executor
	r := Runner{Execute: func(*JobSpec) (*sim.Result, error) {
		started.Add(1)
		return &sim.Result{}, nil
	}}
	g := SweepGrid(SweepConfig{H: tiny2D(), Patterns: []string{"Uniform"}, Seed: 1})
	n := len(g.Specs)
	for _, workers := range []int{1, 4} {
		started.Store(0)
		var mu sync.Mutex
		var calls, maxDone int
		r.Workers = workers
		rows, err := Run(r, func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != n {
				t.Errorf("workers=%d: progress total %d, want %d", workers, total, n)
			}
			if calls == 0 && (done != 0 || started.Load() != 0) {
				t.Errorf("workers=%d: first progress call is done=%d after %d jobs started, want (0, %d) before any job",
					workers, done, started.Load(), n)
			}
			if calls > 0 && done == 0 {
				t.Errorf("workers=%d: grid start reported twice", workers)
			}
			calls++
			maxDone = max(maxDone, done)
		}, g)
		if err != nil || len(rows) != n {
			t.Fatalf("workers=%d: %d rows, err %v", workers, len(rows), err)
		}
		if calls != n+1 || maxDone != n {
			t.Errorf("workers=%d: %d progress calls reaching %d, want %d calls reaching %d", workers, calls, maxDone, n+1, n)
		}
	}
}

// TestExecuteJobsReportsFailuresAndHoles: a grid with both an outright
// failure and a quarantined job reports both from the strict readings
// (ExecuteJobs, and Run whatever the fold), while ExecuteJobsPartial hands
// the hole back alongside the failure.
func TestExecuteJobsReportsFailuresAndHoles(t *testing.T) {
	t.Parallel()
	g := SweepGrid(SweepConfig{H: tiny2D(), Mechanisms: []string{"Minimal"}, Patterns: []string{"Uniform"},
		Loads: []float64{0.1, 0.2, 0.3, 0.4}, Seed: 1})
	broken, poisoned := g.Specs[1].Hash(), g.Specs[2].Hash()
	r := Runner{Workers: 2, Execute: func(s *JobSpec) (*sim.Result, error) {
		switch s.Hash() {
		case broken:
			return nil, errors.New("engine exploded")
		case poisoned:
			return nil, &QuarantineError{Label: s.String(), Attempts: []QuarantineAttempt{{Worker: "w1", Fate: "worker-lost"}}}
		}
		return &sim.Result{}, nil
	}}
	results, holes, err := r.ExecuteJobsPartial(nil, g.Specs)
	if err == nil || results != nil || len(holes) != 4 || holes[2] == nil || holes[1] != nil {
		t.Fatalf("partial reading: results %v, holes %v, err %v; want the failure with the hole at index 2 alongside", results, holes, err)
	}
	if errors.Is(err, ErrQuarantined) {
		t.Errorf("partial reading folded the hole into its error: %v", err)
	}
	_, strict := r.ExecuteJobs(g.Specs)
	_, viaRun := Run(r, nil, g)
	for name, err := range map[string]error{"ExecuteJobs": strict, "Run": viaRun} {
		if err == nil || !errors.Is(err, ErrQuarantined) {
			t.Errorf("%s dropped the quarantined job: %v", name, err)
			continue
		}
		text := err.Error()
		for _, want := range []string{g.Specs[1].String() + ": engine exploded", g.Specs[2].String() + ": job quarantined after 1 attempts [w1: worker-lost]"} {
			if !strings.Contains(text, want) {
				t.Errorf("%s error missing %q: %v", name, want, err)
			}
		}
	}
}

// recorder is a recording executor: it notes every spec hash it is handed.
type recorder struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (rec *recorder) execute(s *JobSpec) (*sim.Result, error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.seen[s.Hash()] = true
	return &sim.Result{CompletionTime: int64(s.Seed)}, nil
}

// TestRunnersAreIndependent: two Runners with different stores and different
// executors run grids concurrently in one process, and each store and each
// executor sees only its own Runner's specs.
func TestRunnersAreIndependent(t *testing.T) {
	t.Parallel()
	type side struct {
		r     Runner
		rec   *recorder
		store *cache.Store
		specs []JobSpec
	}
	sides := make([]*side, 2)
	for i := range sides {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{seen: make(map[string]bool)}
		g := SweepGrid(SweepConfig{H: tiny2D(), Patterns: []string{"Uniform"}, Seed: uint64(100 + i)})
		sides[i] = &side{r: Runner{Workers: 2, Cache: store, Execute: rec.execute}, rec: rec, store: store, specs: g.Specs}
	}
	var wg sync.WaitGroup
	for _, sd := range sides {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ { // the second pass is all hits, from its own store
				if _, err := sd.r.ExecuteJobs(sd.specs); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for i, sd := range sides {
		other := sides[1-i]
		n := len(sd.specs)
		if hits, misses := sd.store.Stats(); hits != int64(n) || misses != int64(n) {
			t.Errorf("runner %d: store saw %d hits, %d misses, want %d and %d", i, hits, misses, n, n)
		}
		if entries, err := sd.store.Len(); err != nil || entries != n {
			t.Errorf("runner %d: store holds %d entries (err %v), want %d", i, entries, err, n)
		}
		if len(sd.rec.seen) != n {
			t.Errorf("runner %d: executor saw %d specs, want %d", i, len(sd.rec.seen), n)
		}
		for j := range other.specs {
			key := other.specs[j].Hash()
			if sd.rec.seen[key] {
				t.Errorf("runner %d: executor was handed runner %d's %s", i, 1-i, &other.specs[j])
			}
			if _, ok, _ := sd.store.Get(key); ok {
				t.Errorf("runner %d: store holds runner %d's %s", i, 1-i, &other.specs[j])
			}
		}
	}
}
