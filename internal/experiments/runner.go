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

// Executor runs one job spec to a result somewhere else: a work-queue
// server's dispatch, which ships the spec to a remote worker and blocks
// until the result returns. It must be result-transparent — executing a spec
// anywhere yields the bytes a local run yields here, which holds whenever
// the remote end runs the same sim.EngineVersion.
type Executor func(spec *JobSpec) (*sim.Result, error)

// Runner is how runs execute: everything besides the spec that a run reads.
// It is a plain value with no state behind it — copy it, change a field, run
// two different ones side by side in one process. The zero value runs every
// spec locally and sequentially, one pool worker per CPU, with no cache and
// no checkpoints. No field changes a result: rows are bit-identical for
// every setting.
type Runner struct {
	// Workers is how many specs run at once: the grid pool of Run and
	// ExecuteJobs, a queue worker's slot count. Below 1 means one per CPU.
	Workers int
	// RunWorkers is the intra-run worker count (sim.RunOptions.Workers):
	// n > 0 fixed, 0 sequential, below 0 adaptive — each run takes the CPUs
	// the Workers concurrent runs leave free (see runWorkersFor). Fixed
	// values multiply with Workers, so raising both oversubscribes the CPUs.
	RunWorkers int
	// Cache, when set, is the content-addressed result store: RunSpec looks
	// the spec's hash up first and only runs on a miss, writing the result
	// back for the next run. The hash covers every semantic field of the
	// spec plus sim.EngineVersion, so a second run of an identical grid is
	// 100% hits and byte-identical rows.
	Cache *cache.Store
	// Execute, when set, runs RunSpec's cache misses in place of a local
	// run. A queue worker's Runner has none, so its jobs can never bounce
	// back into a queue.
	Execute Executor
	// Checkpoint, when set alongside a snapshot store, makes local runs
	// store periodic engine snapshots under their spec hash, resume from a
	// stored one, and drop it at the terminal result.
	Checkpoint *CheckpointPolicy
	// Snapshots is where RunSpec keeps those snapshots; nil means Cache, so
	// a plain -cache-dir setup keeps checkpoints next to the results they
	// protect.
	Snapshots *cache.Store
	// Drain, when set and raised, stops every in-flight checkpointed run of
	// this Runner at its next inter-cycle point: the run ships a final
	// snapshot and returns sim.ErrCheckpointed. Runs without a checkpoint
	// sink are unaffected. One-way — the SIGTERM path of a preemptible
	// process, not a pause button.
	Drain *atomic.Bool
}

// Draining reports whether r.Drain has been raised.
func (r Runner) Draining() bool { return r.Drain != nil && r.Drain.Load() }

// forGrid returns r with Workers resolved to the pool a grid of n specs
// occupies — the size bound capped by the job count — which is what the
// adaptive RunWorkers policy divides the CPUs by.
func (r Runner) forGrid(n int) Runner {
	r.Workers = max(1, min(DefaultWorkers(r.Workers), n))
	return r
}

// RunSpec executes one spec: the result cache first, then r.Execute when
// set, else a local run — checkpointed through the snapshot store when
// r.Checkpoint is set, otherwise plain and uninterrupted. Cache misses are
// written back best-effort — a failing write never fails the run.
func (r Runner) RunSpec(spec *JobSpec) (*sim.Result, error) { return r.runSpec(spec, nil) }

// runSpec is RunSpec with the spec's fault section given as hashWith takes
// it. The spec is hashed once, here, when a run of r needs its hash: the
// cache key is also the key a checkpointed local run stores under.
func (r Runner) runSpec(spec *JobSpec, faults []byte) (*sim.Result, error) {
	var key string
	if r.hashes() {
		key = spec.hashWith(faults)
	}
	if r.Execute != nil {
		return r.cached(spec, key, func(s *JobSpec, _ string) (*sim.Result, error) { return r.Execute(s) })
	}
	return r.cached(spec, key, r.runLocal)
}

// hashes reports whether RunSpec addresses a spec by its hash: for the
// result cache, or for the snapshot store of a checkpointed local run.
func (r Runner) hashes() bool {
	return r.Cache != nil || (r.Execute == nil && r.Checkpoint != nil && r.Snapshots != nil)
}

// cached runs the spec through the result cache under key, its hash, when r
// has one; run receives the key too.
func (r Runner) cached(spec *JobSpec, key string, run func(s *JobSpec, key string) (*sim.Result, error)) (*sim.Result, error) {
	if r.Cache != nil {
		if res, ok, err := r.Cache.Get(key); err == nil && ok {
			return res, nil
		}
	}
	res, err := run(spec, key)
	if err != nil {
		return nil, err
	}
	if r.Cache != nil {
		_ = r.Cache.Put(key, res)
	}
	return res, nil
}

// ExecuteJobs runs an enumerated grid of specs on the worker pool and
// returns one result per spec, in enumeration order — bit-identical for
// any worker count and any backend. It is the strict reading of
// ExecuteJobsPartial, for callers that cannot use a grid with holes: every
// job that failed outright and every quarantined job fails the call, the
// failures joined in job order, then the holes with their labelled
// QuarantineErrors in job order.
func (r Runner) ExecuteJobs(specs []JobSpec) ([]*sim.Result, error) {
	results, holes, err := r.ExecuteJobsPartial(nil, specs)
	if err = errors.Join(err, holeErrors(specs, holes)); err != nil {
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

// Run is the package's one execution site: it runs the grid's specs on r's
// worker pool — each through r.RunSpec — and folds the results. Rows are
// bit-identical for any Runner. A grid with outright failures fails with
// the strict reading of ExecuteJobs, whatever its fold makes of holes.
//
// A non-nil progress is called once with done == 0 when the grid starts
// (from the calling goroutine, before any job runs) and then once per
// executed job — successful or failed — with the running completion count
// and the grid's total, so a caller can derive an ETA without
// instrumenting any job. The per-job calls arrive concurrently from worker
// goroutines, and may arrive out of order; progress must tolerate both.
// Progress reporting never affects results.
func Run[R any](r Runner, progress func(done, total int), g Grid[R]) ([]R, error) {
	results, holes, err := r.ExecuteJobsPartial(progress, g.Specs)
	if err != nil {
		return nil, errors.Join(err, holeErrors(g.Specs, holes))
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
