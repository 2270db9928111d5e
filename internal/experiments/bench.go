package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// The engine memory ladder behind `experiments -exp bench`: the arena
// footprint of the engine at three cube sizes, reported as a schema-stable
// JSON artifact whose deterministic bytes/switch figures CI gates against
// the committed BENCH_8.json. The wall-clock fields vary with the runner.

// BenchSchema tags the JSON report; bump only on a breaking shape change.
const BenchSchema = "hyperx-bench/1"

// BenchReport is the top-level BENCH artifact.
type BenchReport struct {
	Schema string `json:"schema"`
	Engine string `json:"engine"`
	// Memory is the arena-footprint scaling ladder.
	Memory []MemBenchResult `json:"memory,omitempty"`
}

// MemBenchResult is one row of the memory scaling ladder. BytesPerSwitch
// and ArenaBytes are deterministic for a given engine version — they are
// what the CI memory-regression guard compares — while ConstructMillis
// and StepCyclesPerSec are wall-clock and vary with the runner.
type MemBenchResult struct {
	Name             string  `json:"name"`
	Switches         int     `json:"switches"`
	ArenaBytes       int64   `json:"arenaBytes"`
	StagingCapBytes  int64   `json:"stagingCapBytes"`
	BytesPerSwitch   float64 `json:"bytesPerSwitch"`
	ConstructMillis  float64 `json:"constructMillis"`
	StepCyclesPerSec float64 `json:"stepCyclesPerSec"`
}

// memCases is the memory scaling ladder: cubes from the paper scale up to
// the 32K-switch target, with a fixed K=8 and VCs=4 so bytes/switch
// compares across sizes. The paper rows run the core PolSP mechanism; the
// 32x32x32 scale row runs the table-free DOR ladder, because the
// polarized base routes build an all-pairs distance matrix (O(S^2) space
// and S BFS passes) that has nothing to do with the engine arenas being
// measured — at equal VC count the engine footprint is
// mechanism-independent. The 32K row is the scale target of the arena
// work: it must construct and step at interactive speed on one core.
func memCases() []struct {
	name string
	side int
	dor  bool
} {
	return []struct {
		name string
		side int
		dor  bool
	}{
		{name: "mem-8x8x8", side: 8},
		{name: "mem-16x16x16", side: 16},
		{name: "mem-32x32x32", side: 32, dor: true},
	}
}

// Bench runs the memory ladder: one construction plus a short low-load
// open-loop window per size, with the engine's own accounting
// (RunOptions.MemStats) supplying the arena figures and the construction
// time, so nothing is built twice.
func Bench(seed uint64) (BenchReport, error) {
	rep := BenchReport{Schema: BenchSchema, Engine: sim.EngineVersion}
	for _, c := range memCases() {
		h := topo.MustHyperX(c.side, c.side, c.side)
		nw := topo.NewNetwork(h, topo.NewFaultSet())
		var mech routing.Mechanism
		if c.dor {
			alg, err := routing.NewDOR(nw)
			if err != nil {
				return rep, fmt.Errorf("bench %s: %w", c.name, err)
			}
			if mech, err = routing.NewLadder(alg, 4, 1, "DOR"); err != nil {
				return rep, fmt.Errorf("bench %s: %w", c.name, err)
			}
		} else {
			m, err := core.New(nw, core.PolarizedRoutes, 4)
			if err != nil {
				return rep, fmt.Errorf("bench %s: %w", c.name, err)
			}
			mech = m
		}
		pat, err := traffic.NewUniform(h.Switches() * 8)
		if err != nil {
			return rep, fmt.Errorf("bench %s: %w", c.name, err)
		}
		var mem sim.MemStats
		const cycles = 2000
		start := time.Now()
		if _, err := sim.Run(sim.RunOptions{
			Net: nw, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
			Load: 0.001, MeasureCycles: cycles, Seed: seed, Workers: 1,
			MemStats: &mem,
		}); err != nil {
			return rep, fmt.Errorf("bench %s: %w", c.name, err)
		}
		stepSecs := time.Since(start).Seconds() - float64(mem.ConstructNanos)/1e9
		row := MemBenchResult{
			Name:            c.name,
			Switches:        mem.Switches,
			ArenaBytes:      mem.ArenaBytes,
			StagingCapBytes: mem.StagingCapBytes,
			BytesPerSwitch:  mem.BytesPerSwitch,
			ConstructMillis: float64(mem.ConstructNanos) / 1e6,
		}
		if stepSecs > 0 {
			row.StepCyclesPerSec = cycles / stepSecs
		}
		rep.Memory = append(rep.Memory, row)
	}
	return rep, nil
}

// CompareBenchMemory is the CI memory-regression guard: it checks the
// fresh report's deterministic per-size bytes/switch against a committed
// baseline report and fails on growth past the tolerance (e.g. 0.10 for
// +10%). Wall-clock fields are ignored — they are not comparable across
// runners. Sizes present on only one side are reported but tolerated, so
// adding a ladder row does not break the guard retroactively.
func CompareBenchMemory(baselinePath string, rep BenchReport, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base BenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench baseline %s: %w", baselinePath, err)
	}
	baseRows := make(map[string]MemBenchResult, len(base.Memory))
	for _, r := range base.Memory {
		baseRows[r.Name] = r
	}
	var failures []string
	for _, r := range rep.Memory {
		b, ok := baseRows[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench compare: %s has no baseline row in %s (new ladder size, skipping)\n", r.Name, baselinePath)
			continue
		}
		if b.BytesPerSwitch <= 0 {
			continue
		}
		growth := r.BytesPerSwitch/b.BytesPerSwitch - 1
		if growth > tolerance {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f bytes/switch vs baseline %.0f (%+.1f%%, tolerance %+.0f%%)",
				r.Name, r.BytesPerSwitch, b.BytesPerSwitch, growth*100, tolerance*100))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("memory regression vs %s:\n  %s", baselinePath, strings.Join(failures, "\n  "))
	}
	return nil
}

// WriteBench writes the report as indented JSON (stable key order — the
// schema is diffable across runs even though some values are wall-clock).
func WriteBench(path string, rep BenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RenderBench formats the report for stdout.
func RenderBench(rep BenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Engine memory ladder (%s)\n", rep.Engine)
	fmt.Fprintf(&b, "  %-22s %10s %12s %12s %12s %14s\n",
		"benchmark", "switches", "arena MiB", "bytes/sw", "construct", "step c/s")
	for _, r := range rep.Memory {
		fmt.Fprintf(&b, "  %-22s %10d %12.1f %12.0f %10.0fms %14.0f\n",
			r.Name, r.Switches, float64(r.ArenaBytes)/(1<<20),
			r.BytesPerSwitch, r.ConstructMillis, r.StepCyclesPerSec)
	}
	return b.String()
}
