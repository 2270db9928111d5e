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

	"repro/internal/sim"
)

func TestRunJobsOrderAndBounds(t *testing.T) {
	var inFlight, peak atomic.Int32
	results, err := RunJobs(3, 20, func(i int) (int, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*i {
			t.Fatalf("result %d = %d, want %d (order not preserved)", i, r, i*i)
		}
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("pool ran %d jobs concurrently, bound is 3", p)
	}
	if _, err := RunJobs[int](4, 0, nil); err != nil {
		t.Errorf("empty job list: %v", err)
	}
}

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

// TestRunWorkersFor covers the intra-run worker policy: fixed counts pass
// through; the adaptive policy splits CPUs across the grid pool, caps at
// the switch count, and stays sequential on small networks or saturated
// pools.
func TestRunWorkersFor(t *testing.T) {
	defer SetDefaultRunWorkers(0) // restore the package default
	SetDefaultRunWorkers(3)
	if got := RunWorkersFor(1 << 20); got != 3 {
		t.Errorf("fixed policy returned %d, want 3", got)
	}
	SetAdaptiveRunWorkers()
	cpus := runtime.GOMAXPROCS(0)
	SetGridWorkers(1)
	want := cpus
	if want > 512 {
		want = 512
	}
	if want <= 1 {
		want = 0
	}
	if got := RunWorkersFor(512); got != want {
		t.Errorf("adaptive single-job grid: %d workers for 512 switches on %d CPUs, want %d", got, cpus, want)
	}
	if got := RunWorkersFor(16); got != 0 {
		t.Errorf("adaptive policy sharded a tiny network: %d", got)
	}
	SetGridWorkers(cpus)
	if got := RunWorkersFor(512); got != 0 {
		t.Errorf("adaptive policy oversubscribed a saturated pool: %d", got)
	}
	if got := RunWorkersFor(1 << 20); got > cpus {
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
	seq, err := Run(1, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	par, err = Run(8, nil, g)
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
	var started atomic.Int32 // jobs that have reached the executor
	SetExecutor(func(*JobSpec) (*sim.Result, error) {
		started.Add(1)
		return &sim.Result{}, nil
	})
	defer SetExecutor(nil)
	g := SweepGrid(SweepConfig{H: tiny2D(), Patterns: []string{"Uniform"}, Seed: 1})
	n := len(g.Specs)
	for _, workers := range []int{1, 4} {
		started.Store(0)
		var mu sync.Mutex
		var calls, maxDone int
		rows, err := Run(workers, func(done, total int) {
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
