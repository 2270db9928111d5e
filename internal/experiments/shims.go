package experiments

// This file is deleted by the next benchmark PR. It is the process-wide
// surface the frozen bench/ module still calls, kept at its exact
// signatures over one default Runner; nothing else in the root module —
// code or test — may call it (CI: "shims are for bench/ only"). Everything
// here is a Runner field or method under an older name.

import (
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/sim"
)

// defaultRunner is what the shims fill and run through; nil is the zero
// Runner. Setters replace the value, so resolving it is one atomic load.
var defaultRunner atomic.Pointer[Runner]

// DefaultRunner returns the Runner the shims have filled: what queue.Work,
// bench/'s in-process worker entry point, runs its jobs through.
func DefaultRunner() Runner {
	if r := defaultRunner.Load(); r != nil {
		return *r
	}
	return Runner{}
}

func editDefaultRunner(edit func(*Runner)) {
	for {
		old := defaultRunner.Load()
		var r Runner
		if old != nil {
			r = *old
		}
		edit(&r)
		if defaultRunner.CompareAndSwap(old, &r) {
			return
		}
	}
}

// SetExecutor sets the default Runner's Execute; nil restores local
// execution.
//
//hx:allow unusedexport frozen bench/ calls it; deleted with the shims by ROADMAP 1(b)
func SetExecutor(e Executor) { editDefaultRunner(func(r *Runner) { r.Execute = e }) }

// SetResultCache sets the default Runner's Cache; nil uninstalls.
//
//hx:allow unusedexport frozen bench/ calls it; deleted with the shims by ROADMAP 1(b)
func SetResultCache(s *cache.Store) { editDefaultRunner(func(r *Runner) { r.Cache = s }) }

// ResultCache returns the default Runner's Cache, or nil.
//
//hx:allow unusedexport frozen bench/ calls it; deleted with the shims by ROADMAP 1(b)
func ResultCache() *cache.Store { return DefaultRunner().Cache }

// SetDefaultRunWorkers fixes the default Runner's RunWorkers (negative
// values mean sequential, as they always did here).
//
//hx:allow unusedexport frozen bench/ calls it; deleted with the shims by ROADMAP 1(b)
func SetDefaultRunWorkers(n int) { editDefaultRunner(func(r *Runner) { r.RunWorkers = max(n, 0) }) }

// RunSpec is the default Runner's RunSpec.
//
//hx:allow unusedexport frozen bench/ calls it; deleted with the shims by ROADMAP 1(b)
func RunSpec(spec *JobSpec) (*sim.Result, error) { return DefaultRunner().RunSpec(spec) }

// ExecuteJobs is the default Runner's ExecuteJobs on a pool of the given
// size.
//
//hx:allow unusedexport frozen bench/ calls it; deleted with the shims by ROADMAP 1(b)
func ExecuteJobs(workers int, specs []JobSpec) ([]*sim.Result, error) {
	r := DefaultRunner()
	r.Workers = workers
	return r.ExecuteJobs(specs)
}

// Run is a plain, sequential, uncheckpointed local run of the spec: the
// zero Runner's, reading nothing. bench/ passes it as an Executor.
func (s *JobSpec) Run() (*sim.Result, error) { return Runner{}.runLocal(s, "") }
