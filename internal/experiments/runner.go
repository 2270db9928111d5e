package experiments

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/sim"
)

// This file is the parallel experiment runner and the package's one
// execution site. A figure is a Grid: a flat list of JobSpecs in enumeration
// order plus the fold that turns their results into rows. Run executes the
// specs on a bounded worker pool (locally, through the result cache, or on a
// distributed executor), reassembles the results in enumeration order and
// folds them. Determinism is by construction: each spec carries its own seed
// derived from (base seed, job index) alone and rebuilds its own network,
// pattern and mechanism, so rows are bit-identical for any worker count and
// for any execution backend.

// DefaultWorkers resolves a worker-count setting: any value below 1 selects
// one worker per available CPU.
func DefaultWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// JobSeed derives the simulation seed of job index from an experiment's base
// seed. The seed depends only on (seed, index) — never on worker count or
// scheduling — which is what keeps parallel grids bit-identical to
// sequential ones.
func JobSeed(seed uint64, index int) uint64 {
	return rng.StreamSeed(seed, uint64(index))
}

// RunJobs executes n independent jobs on a worker pool of the given size
// (DefaultWorkers resolves values below 1) and returns their results in job
// order. Every job runs even when earlier ones fail; on failure the joined
// error (errors.Join, in job order) surfaces every broken point of the grid
// in one run instead of only the first.
func RunJobs[T any](workers, n int, job func(index int) (T, error)) ([]T, error) {
	return runJobs(workers, n, nil, job)
}

// runJobs is RunJobs with the progress observer Run documents.
func runJobs[T any](workers, n int, progress func(done, total int), job func(index int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	workers = DefaultWorkers(workers)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var done atomic.Int64
	if progress != nil {
		progress(0, n) // grid start, before any worker reports
	}
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				results[i], errs[i] = job(i)
				if progress != nil {
					progress(int(done.Add(1)), n)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// resultCache, when set, short-circuits RunSpec by content address; see
// SetResultCache.
var resultCache atomic.Pointer[cache.Store]

// SetResultCache installs a process-wide content-addressed result store:
// every RunSpec call first looks its spec's hash up in the store and only
// simulates on a miss, writing the result back for the next run. nil
// uninstalls. Because the hash covers every semantic field of the spec
// plus sim.EngineVersion, caching never changes results — a second run of
// an identical grid is 100% hits and byte-identical rows.
func SetResultCache(s *cache.Store) { resultCache.Store(s) }

// ResultCache returns the installed result store, or nil.
func ResultCache() *cache.Store { return resultCache.Load() }

// CacheStats reports the cumulative hit/miss counts of the installed
// store; zeros when no store is installed.
func CacheStats() (hits, misses int64) {
	if s := resultCache.Load(); s != nil {
		return s.Stats()
	}
	return 0, 0
}

// Executor runs one job spec to a result. The default executor is
// (*JobSpec).Run (local, in-process); a work-queue server installs its
// dispatching executor instead, which ships the spec to a remote worker
// and blocks until the result returns.
type Executor func(spec *JobSpec) (*sim.Result, error)

var executorHook atomic.Pointer[Executor]

// SetExecutor installs a process-wide execution backend for RunSpec; nil
// restores local execution. The backend must be result-transparent:
// executing a spec anywhere yields the bytes (*JobSpec).Run yields here,
// which holds whenever the remote end runs the same sim.EngineVersion.
func SetExecutor(e Executor) {
	if e == nil {
		executorHook.Store(nil)
		return
	}
	executorHook.Store(&e)
}

// RunSpec executes one spec through the full backend stack: result cache
// first (when installed), then the configured executor (local by default).
// Cache misses are written back best-effort — a failing write never fails
// the run.
func RunSpec(spec *JobSpec) (*sim.Result, error) {
	run := (*JobSpec).Run
	if e := executorHook.Load(); e != nil {
		run = func(s *JobSpec) (*sim.Result, error) { return (*e)(s) }
	}
	return runSpecCached(spec, run)
}

// RunSpecLocal is RunSpec pinned to in-process execution: cache lookup,
// then (*JobSpec).Run, never the installed executor. Work-queue workers
// use it so a worker that is itself part of a serving process can never
// bounce a job back into the queue.
func RunSpecLocal(spec *JobSpec) (*sim.Result, error) {
	return runSpecCached(spec, (*JobSpec).Run)
}

func runSpecCached(spec *JobSpec, run func(*JobSpec) (*sim.Result, error)) (*sim.Result, error) {
	store := resultCache.Load()
	var key string
	if store != nil {
		key = spec.Hash()
		if res, ok, err := store.Get(key); err == nil && ok {
			return res, nil
		}
	}
	res, err := run(spec)
	if err != nil {
		return nil, err
	}
	if store != nil {
		_ = store.Put(key, res)
	}
	return res, nil
}

// ExecuteJobs runs an enumerated grid of specs on the worker pool and
// returns one result per spec, in enumeration order — bit-identical for
// any worker count and any backend. It is ExecuteJobsPartial for callers
// that cannot use a grid with holes: every quarantined job fails the call
// with its labelled QuarantineError (joined in job order), unless other
// jobs failed outright, in which case their errors are the ones reported.
func ExecuteJobs(workers int, specs []JobSpec) ([]*sim.Result, error) {
	results, holes, err := ExecuteJobsPartial(workers, nil, specs)
	if err == nil {
		err = holeErrors(specs, holes)
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Grid is one figure's simulation work as data plus a fold: the specs it
// needs run, in enumeration order, and the function that turns their
// results into the figure's rows. The constructors (SweepGrid, Fig6Grid,
// ShapesGrid, Fig10Grid, Section7Grid, RecoveryGrid) are pure — they
// enumerate and never execute — so anything that wants only the
// enumeration (cache coverage, a benchmark workload, a digest of the
// grid's identity) reads Specs and stops. A constructor that cannot build
// its grid (a root outside the topology, more faults than links) returns
// no Specs and a Rows that reports why, so the error surfaces from Run
// like any other.
type Grid[R any] struct {
	Specs []JobSpec
	// Rows folds one result per spec into rows. holes is indexed like
	// Specs: a non-nil entry is a job the backend quarantined, whose
	// result is nil. Graph work a row needs but no spec does (Fig 6
	// diameters, Section 7 stretch) happens here. Rows may return rows
	// and an error together: Fig 6 reports a disconnecting fault prefix
	// that way, with the rows gathered before it.
	Rows func(results []*sim.Result, holes []*QuarantineError) ([]R, error)
}

// Run is the package's one execution site: it runs the grid's specs on the
// worker pool — through the result cache and the installed executor, see
// RunSpec — and folds the results. workers bounds the pool (below 1 means
// one per CPU); rows are bit-identical for any value.
//
// A non-nil progress is called once with done == 0 when the grid starts
// (from the calling goroutine, before any job runs) and then once per
// executed job — successful or failed — with the running completion count
// and the grid's total, so a caller can derive an ETA without
// instrumenting any job. The per-job calls arrive concurrently from worker
// goroutines, and may arrive out of order; progress must tolerate both.
// Progress reporting never affects results.
func Run[R any](workers int, progress func(done, total int), g Grid[R]) ([]R, error) {
	results, holes, err := ExecuteJobsPartial(workers, progress, g.Specs)
	if err != nil {
		return nil, err
	}
	return g.Rows(results, holes)
}

// complete adapts a fold that needs every result into a Grid.Rows: a hole
// fails the figure with the labelled error ExecuteJobs gives it.
func complete[R any](specs []JobSpec, fold func(results []*sim.Result) ([]R, error)) func([]*sim.Result, []*QuarantineError) ([]R, error) {
	return func(results []*sim.Result, holes []*QuarantineError) ([]R, error) {
		if err := holeErrors(specs, holes); err != nil {
			return nil, err
		}
		return fold(results)
	}
}

// failedGrid is what a constructor returns when its configuration cannot
// be enumerated: nothing to run, and a fold that reports err.
func failedGrid[R any](err error) Grid[R] {
	return Grid[R]{Rows: func([]*sim.Result, []*QuarantineError) ([]R, error) { return nil, err }}
}
