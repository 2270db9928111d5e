// Package cliutil holds what the command line tools share — the small
// parsing helpers and the flags both tools declare — kept out of main
// packages so it is testable.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/topo"
)

// ParseDims parses a topology spec such as "16x16" or "8x8x8" into sides.
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(parts) == 0 || parts[0] == "" {
		return nil, fmt.Errorf("empty dimension spec %q", s)
	}
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad dimensions %q: %v", s, err)
		}
		if v < 2 {
			return nil, fmt.Errorf("bad dimensions %q: sides must be >= 2", s)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

// ParseShape parses a structured fault shape name, accepting the paper's
// per-dimension aliases (subplane/subcube, cross/star).
func ParseShape(s string) (topo.ShapeKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "row":
		return topo.ShapeRow, nil
	case "subblock", "subplane", "subcube":
		return topo.ShapeSubBlock, nil
	case "cross", "star":
		return topo.ShapeCross, nil
	}
	return 0, fmt.Errorf("unknown shape %q (row|subblock|cross)", s)
}

// ResolveWorkers validates a -workers flag value: negatives are rejected;
// 0 (one worker per CPU) and positive counts pass through to the job
// runner, which owns the resolution policy.
func ResolveWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("workers must be >= 0, got %d", n)
	}
	return n, nil
}

// ParseLoads parses a comma-separated load list such as "0.1,0.5,1.0".
func ParseLoads(s string) ([]float64, error) {
	var loads []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %v", part, err)
		}
		if v <= 0 || v > 1 {
			return nil, fmt.Errorf("load %v out of (0,1]", v)
		}
		loads = append(loads, v)
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("no loads in %q", s)
	}
	return loads, nil
}

// RunFlags are the flags cmd/hxsim and cmd/experiments share: one
// declaration, so the two tools cannot drift in name, default or meaning.
type RunFlags struct {
	Seed             uint64
	Workers          int
	RunWorkers       int
	CacheDir         string
	CheckpointEvery  time.Duration
	CheckpointCycles int64
	CheckpointDir    string
	MemStats         bool
	CPUProfile       string
	Trace            string
}

// Register declares the shared flags on fs.
func (f *RunFlags) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&f.Seed, "seed", 1, "random seed")
	fs.IntVar(&f.Workers, "workers", 0, "parallel simulation workers across points (0 = one per CPU); results are identical for any value")
	fs.IntVar(&f.RunWorkers, "run-workers", -1, "intra-run workers per simulation point (-1 = adaptive from switch count and CPUs left by the -workers pool, 0 = one per CPU); results are identical for any value. Explicit values multiply with -workers")
	fs.StringVar(&f.CacheDir, "cache-dir", "", "content-addressed result cache directory; re-runs recompute only changed points")
	fs.DurationVar(&f.CheckpointEvery, "checkpoint-every", 0, "snapshot every in-flight simulation at this wall-clock interval, so an interrupted run resumes mid-point instead of restarting (needs -checkpoint-dir or -cache-dir)")
	fs.Int64Var(&f.CheckpointCycles, "checkpoint-cycles", 0, "snapshot every N simulated cycles instead of on wall-clock time (deterministic trigger for tests)")
	fs.StringVar(&f.CheckpointDir, "checkpoint-dir", "", "directory for checkpoint snapshots (default: the -cache-dir store)")
	fs.BoolVar(&f.MemStats, "mem-stats", false, "print the engine's memory accounting (arena bytes, bytes/switch, construction time) on stderr before running")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the invocation to this file, flushed on every exit (read it with go tool pprof)")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace of the invocation to this file, flushed on every exit (read it with go tool trace)")
}

// StartProfiles starts the -cpuprofile profile and the -trace execution
// trace and returns what stops both and flushes their files. The stop
// function may run more than once and from any goroutine, so a tool calls
// it on every exit path, os.Exit included; only the first call does
// anything. Without either flag there is nothing to start and stop does
// nothing.
func (f *RunFlags) StartProfiles() (stop func(), err error) {
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	for _, p := range []struct {
		flag, path string
		start      func(io.Writer) error
		stop       func()
	}{
		{"-cpuprofile", f.CPUProfile, pprof.StartCPUProfile, pprof.StopCPUProfile},
		{"-trace", f.Trace, trace.Start, trace.Stop},
	} {
		if p.path == "" {
			continue
		}
		file, err := os.Create(p.path)
		if err == nil {
			if err = p.start(file); err != nil {
				file.Close()
			}
		}
		if err != nil {
			stopAll()
			return nil, fmt.Errorf("%s: %w", p.flag, err)
		}
		stops = append(stops, func() {
			p.stop()
			// A failed close costs the profile, a diagnostic, never a
			// result: the tool exits the way it was going to.
			_ = file.Close()
		})
	}
	var once sync.Once
	return func() { once.Do(stopAll) }, nil
}

// Checkpointing reports whether either checkpoint trigger is set.
func (f *RunFlags) Checkpointing() bool {
	return f.CheckpointEvery > 0 || f.CheckpointCycles > 0
}

// Apply validates the parsed flags and returns them as the Runner every
// run of the invocation goes through: the grid pool bound, the intra-run
// worker policy, the result cache (nil without -cache-dir), the snapshot
// store, the checkpoint policy and a lowered drain flag for the tool's
// signal handler to raise. Checkpointing needs somewhere to keep snapshots
// unless snapshotsLeaveProcess: a queue worker streams them to its server.
func (f *RunFlags) Apply(snapshotsLeaveProcess bool) (r experiments.Runner, err error) {
	if r.Workers, err = ResolveWorkers(f.Workers); err != nil {
		return r, err
	}
	r.RunWorkers = f.RunWorkers // below 0 is adaptive on both sides
	if f.RunWorkers == 0 {
		// The flag's 0 is one per CPU; the Runner's is sequential.
		r.RunWorkers = experiments.DefaultWorkers(0)
	}
	if f.CacheDir != "" {
		if r.Cache, err = cache.Open(f.CacheDir); err != nil {
			return r, err
		}
	}
	if f.CheckpointDir != "" {
		if r.Snapshots, err = cache.Open(f.CheckpointDir); err != nil {
			return r, err
		}
	}
	if f.Checkpointing() {
		if f.CheckpointDir == "" && f.CacheDir == "" && !snapshotsLeaveProcess {
			return r, fmt.Errorf("-checkpoint-every/-checkpoint-cycles need -checkpoint-dir or -cache-dir to store snapshots")
		}
		r.Checkpoint = &experiments.CheckpointPolicy{Every: f.CheckpointEvery, EveryCycles: f.CheckpointCycles}
	}
	r.Drain = new(atomic.Bool)
	return r, nil
}

// ReportCache writes the final hit/miss tally of store to w, nothing when
// there is no store. CI's cache-determinism job greps the line to assert a
// fully warmed second run. Entries whose stored checksum failed were
// re-simulated and healed in place; the suffix only appears when that
// happened.
func ReportCache(w io.Writer, store *cache.Store) {
	if store == nil {
		return
	}
	hits, misses := store.Stats()
	suffix := ""
	if healed := store.Healed(); healed > 0 {
		suffix = fmt.Sprintf(" (%d corrupt entries healed)", healed)
	}
	fmt.Fprintf(w, "cache: %d hits, %d misses%s\n", hits, misses, suffix)
}
