package hyperx

// The benchmark harness regenerates every table and figure of the paper's
// evaluation at laptop scale and reports the headline numbers as custom
// benchmark metrics, plus ablations over the paper's design choices (the
// escape subnetwork's shortcuts, the SurePath VC budget, the penalty
// weight) and microbenchmarks of the hot substrate paths.
//
//	go test -bench=. -benchmem
//
// Full-size (paper-scale) regeneration: cmd/experiments -full.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// benchBudget keeps one simulated point under a second.
func benchBudget() experiments.Budget {
	return experiments.Budget{Warmup: 800, Measure: 1600}
}

func bench2D() *topo.HyperX { return topo.MustHyperX(4, 4) }
func bench3D() *topo.HyperX { return topo.MustHyperX(4, 4, 4) }

// BenchmarkTable3_TopologicalParameters regenerates Table 3 on the paper's
// full-size networks (pure graph computation).
func BenchmarkTable3_TopologicalParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r2 := experiments.Table3(experiments.Topology2D(experiments.ScaleFull))
		r3 := experiments.Table3(experiments.Topology3D(experiments.ScaleFull))
		if r2.Links != 3840 || r3.Links != 5376 {
			b.Fatal("Table 3 regeneration wrong")
		}
	}
}

// BenchmarkFig1_DiameterUnderFaults regenerates the Figure 1 diameter
// evolution on a 4x4x4 network.
func BenchmarkFig1_DiameterUnderFaults(b *testing.B) {
	h := bench3D()
	for i := 0; i < b.N; i++ {
		points := experiments.Fig1(h, []uint64{1}, 32, 0)
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig4_2DLoadSweep regenerates the 2D fault-free sweep (Figure 4)
// at saturation and reports the per-mechanism accepted load on Uniform.
func BenchmarkFig4_2DLoadSweep(b *testing.B) {
	var sat map[string]map[string]float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Run(experiments.Runner{}, nil, experiments.SweepGrid(experiments.SweepConfig{
			H:      bench2D(),
			Loads:  []float64{1.0},
			Budget: benchBudget(),
			Seed:   1,
		}))
		if err != nil {
			b.Fatal(err)
		}
		sat = experiments.SaturationThroughput(rows)
	}
	for mech, v := range sat["Uniform"] {
		b.ReportMetric(v, "uniform_"+mech)
	}
}

// BenchmarkFig5_3DLoadSweep regenerates the 3D sweep (Figure 5) at
// saturation and reports the RPN column — the paper's separating pattern.
func BenchmarkFig5_3DLoadSweep(b *testing.B) {
	var sat map[string]map[string]float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Run(experiments.Runner{}, nil, experiments.SweepGrid(experiments.SweepConfig{
			H:      bench3D(),
			Loads:  []float64{1.0},
			Budget: benchBudget(),
			Seed:   1,
		}))
		if err != nil {
			b.Fatal(err)
		}
		sat = experiments.SaturationThroughput(rows)
	}
	for mech, v := range sat["Regular Permutation to Neighbour"] {
		b.ReportMetric(v, "rpn_"+mech)
	}
}

// BenchmarkFig6_RandomFaultSweep regenerates the Figure 6 random-fault
// throughput sweep and reports the healthy and faulty endpoints.
func BenchmarkFig6_RandomFaultSweep(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Run(experiments.Runner{}, nil, experiments.Fig6Grid(experiments.Fig6Config{
			H:         bench3D(),
			MaxFaults: 20,
			Step:      10,
			Patterns:  []string{"Uniform"},
			Budget:    benchBudget(),
			Seed:      2,
		}))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Mechanism == "PolSP" && (r.Faults == 0 || r.Faults == 20) {
			b.ReportMetric(r.Accepted, fmt.Sprintf("polsp_%dfaults", r.Faults))
		}
	}
}

// BenchmarkFig8_2DShapeFaults regenerates the 2D structured-shape bars.
func BenchmarkFig8_2DShapeFaults(b *testing.B) {
	benchShapes(b, bench2D())
}

// BenchmarkFig9_3DShapeFaults regenerates the 3D structured-shape bars
// (Row, Subcube, Star).
func BenchmarkFig9_3DShapeFaults(b *testing.B) {
	benchShapes(b, bench3D())
}

func benchShapes(b *testing.B, h *topo.HyperX) {
	b.Helper()
	var rows []experiments.ShapeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Run(experiments.Runner{}, nil, experiments.ShapesGrid(experiments.ShapesConfig{
			H:        h,
			Patterns: []string{"Uniform"},
			Budget:   benchBudget(),
			Seed:     3,
		}))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Mechanism == "PolSP" {
			b.ReportMetric(r.Accepted, "polsp_"+r.Shape)
		}
	}
}

// BenchmarkFig10_CompletionTime regenerates the completion-time experiment
// (RPN burst under the Star shape) and reports the OmniSP/PolSP ratio the
// paper quotes as 2.8x.
func BenchmarkFig10_CompletionTime(b *testing.B) {
	var results []experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.Run(experiments.Runner{}, nil, experiments.Fig10Grid(experiments.Fig10Config{
			H:          bench3D(),
			BurstPhits: 1600,
			Seed:       4,
		}))
		if err != nil {
			b.Fatal(err)
		}
	}
	var omni, pol float64
	for _, r := range results {
		switch r.Mechanism {
		case "OmniSP":
			omni = float64(r.CompletionTime)
		case "PolSP":
			pol = float64(r.CompletionTime)
		}
	}
	if pol > 0 {
		b.ReportMetric(omni/pol, "completion_ratio")
	}
}

// BenchmarkAblationEscapeShortcuts compares the three escape rules — the
// shortcut-free tree (AutoNet baseline), the paper's literal table rule and
// the phased refinement — while the escape subnetwork carries real load. To
// force that, SurePath runs over a DOR base on a faulty network: DOR's
// unique routes break for many pairs, so their traffic is forced onto
// escape paths. It reproduces the paper's claim that opportunistic
// shortcuts prevent the escape subnetwork from collapsing to tree
// throughput ("effectively replacing a deadlock into the marginal
// throughput of a tree").
func BenchmarkAblationEscapeShortcuts(b *testing.B) {
	h := bench3D()
	seq := topo.RandomFaultSequence(h, 9)
	nw := topo.NewNetwork(h, topo.NewFaultSet(seq[:40]...))
	if !nw.Graph().Connected() {
		b.Fatal("fault draw disconnected the bench network")
	}
	pat, err := traffic.NewUniform(h.Switches() * 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, rule := range []escape.Rule{escape.RuleTree, escape.RuleUDTable, escape.RulePhased} {
		b.Run(rule.String(), func(b *testing.B) {
			var accepted, escaped float64
			for i := 0; i < b.N; i++ {
				alg, err := routing.NewDOR(nw)
				if err != nil {
					b.Fatal(err)
				}
				mech, err := core.NewWithAlgorithm(nw, alg, 4, core.WithEscapeRule(rule))
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.RunOptions{
					Net: nw, ServersPerSwitch: 4, Mechanism: mech, Pattern: pat,
					Load: 1.0, WarmupCycles: 800, MeasureCycles: 1600, Seed: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				accepted, escaped = res.AcceptedLoad, res.EscapeFraction
			}
			b.ReportMetric(accepted, "accepted")
			b.ReportMetric(escaped, "escape_frac")
		})
	}
}

// BenchmarkAblationSurePathVCs sweeps the SurePath VC budget (2 = the
// functional minimum, 4 = the paper's fault studies, 6 = Table 4 parity),
// demonstrating the cost/performance trade of Section 6.
func BenchmarkAblationSurePathVCs(b *testing.B) {
	h := bench3D()
	nw := topo.NewNetwork(h, nil)
	pat, err := traffic.NewUniform(h.Switches() * 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, vcs := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("vcs%d", vcs), func(b *testing.B) {
			var accepted float64
			for i := 0; i < b.N; i++ {
				mech, err := core.New(nw, core.PolarizedRoutes, vcs)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.RunOptions{
					Net: nw, ServersPerSwitch: 4, Mechanism: mech, Pattern: pat,
					Load: 1.0, WarmupCycles: 800, MeasureCycles: 1600, Seed: 6,
				})
				if err != nil {
					b.Fatal(err)
				}
				accepted = res.AcceptedLoad
			}
			b.ReportMetric(accepted, "accepted")
		})
	}
}

// BenchmarkAblationPenalties sweeps the penalty weight on the RPN pattern
// with Polarized routes: too high freezes adaptivity at the 0.5 aligned
// bound, too low deroutes wastefully on benign traffic. The paper's "large
// regions of similar performance" claim corresponds to the plateau.
func BenchmarkAblationPenalties(b *testing.B) {
	h := bench3D()
	nw := topo.NewNetwork(h, nil)
	sv := traffic.Servers{H: h, Per: 4}
	pat, err := traffic.NewRegularPermutationToNeighbour(sv)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []float64{0, 2, 8} {
		b.Run(fmt.Sprintf("weight%.0f", w), func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.PenaltyWeight = w
			var accepted float64
			for i := 0; i < b.N; i++ {
				alg, err := routing.NewPolarized(nw)
				if err != nil {
					b.Fatal(err)
				}
				mech, err := routing.NewLadder(alg, 6, 1, "Polarized")
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.RunOptions{
					Net: nw, ServersPerSwitch: 4, Mechanism: mech, Pattern: pat,
					Load: 1.0, WarmupCycles: 800, MeasureCycles: 1600, Seed: 7, Config: cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				accepted = res.AcceptedLoad
			}
			b.ReportMetric(accepted, "accepted")
		})
	}
}

// BenchmarkExtensionSection7 regenerates the cross-topology escape
// comparison (paper Section 7): escape stretch and throughput on HyperX vs
// Torus vs Dragonfly.
func BenchmarkExtensionSection7(b *testing.B) {
	var rows []experiments.Section7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Run(experiments.Runner{}, nil, experiments.Section7Grid(1, experiments.Budget{Warmup: 600, Measure: 1200}))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := r.Topology[:4]
		b.ReportMetric(r.AvgStretch, "stretch_"+name)
		b.ReportMetric(r.PolSPAccepted, "polsp_"+name)
	}
}

// BenchmarkExtensionRecovery regenerates the live-failure recovery
// timeline: mid-run link failures with BFS table rebuild.
func BenchmarkExtensionRecovery(b *testing.B) {
	var results []experiments.RecoveryResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.Run(experiments.Runner{}, nil, experiments.RecoveryGrid(experiments.RecoveryConfig{
			H: bench3D(), Load: 0.5, Faults: 5, Cycles: 6000, Seed: 11,
		}))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(r.PostFaultAvg, "post_"+r.Mechanism)
		b.ReportMetric(float64(r.LostPackets), "lost_"+r.Mechanism)
	}
}

// --- Microbenchmarks of the substrate hot paths. ---

// BenchmarkBFS measures one BFS over the paper's 8x8x8 network.
func BenchmarkBFS(b *testing.B) {
	g := topo.MustHyperX(8, 8, 8).Graph()
	dist := make([]int32, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(int32(i%g.N()), dist)
	}
}

// BenchmarkDistanceTables measures the all-pairs BFS rebuild the routing
// tables need after every failure (the paper argues this cost matches
// Minimal routing).
func BenchmarkDistanceTables(b *testing.B) {
	nw := topo.NewNetwork(topo.MustHyperX(8, 8, 8), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := (&routing.Tables{}).Rebuild(nw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEscapeBuild measures the escape subnetwork construction
// (levels, Up/Down and descent tables) on the paper's 8x8x8.
func BenchmarkEscapeBuild(b *testing.B) {
	nw := topo.NewNetwork(topo.MustHyperX(8, 8, 8), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := escape.Build(nw, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolarizedCandidates measures per-hop candidate generation, the
// simulator's innermost routing call.
func BenchmarkPolarizedCandidates(b *testing.B) {
	nw := topo.NewNetwork(topo.MustHyperX(8, 8, 8), nil)
	alg, err := routing.NewPolarized(nw)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	var st routing.PacketState
	alg.Init(&st, 0, 511, r)
	buf := make([]routing.PortCandidate, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = alg.PortCandidates(int32(i%512), &st, buf[:0])
	}
}

// benchMinimalScan measures the per-hop scan of a distance-driven ladder
// baseline on the paper's 8x8x8, fault-free and with the first 100 links
// of a random failure sequence down: both read the same flattened tables,
// so a dead link must cost one load, not a fault-set probe.
func benchMinimalScan(b *testing.B, build func(*topo.Network) (routing.Algorithm, error)) {
	for _, faults := range []int{0, 100} {
		b.Run(fmt.Sprintf("faults=%d", faults), func(b *testing.B) {
			h := topo.MustHyperX(8, 8, 8)
			alg, err := build(topo.NewNetwork(h, topo.NewFaultSet(topo.RandomFaultSequence(h, 3)[:faults]...)))
			if err != nil {
				b.Fatal(err)
			}
			var init, st routing.PacketState
			alg.Init(&init, 0, 511, rng.New(1))
			buf := make([]routing.PortCandidate, 0, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st = init // Valiant flips the phase at the intermediate
				buf = alg.PortCandidates(int32(i%512), &st, buf[:0])
			}
		})
	}
}

// BenchmarkMinimalCandidates measures Minimal's per-hop scan.
func BenchmarkMinimalCandidates(b *testing.B) {
	benchMinimalScan(b, func(nw *topo.Network) (routing.Algorithm, error) { return routing.NewMinimal(nw) })
}

// BenchmarkValiantCandidates measures Valiant's per-hop scan in its first
// phase (toward the intermediate), the same Minimal scan with another
// target.
func BenchmarkValiantCandidates(b *testing.B) {
	benchMinimalScan(b, func(nw *topo.Network) (routing.Algorithm, error) { return routing.NewValiant(nw) })
}

// BenchmarkOmniCandidates measures Omnidimensional candidate generation on
// the paper's 8x8x8, deroutes allowed (the common case and the longer
// scan: every port of every unaligned dimension is a candidate).
func BenchmarkOmniCandidates(b *testing.B) {
	nw := topo.NewNetwork(topo.MustHyperX(8, 8, 8), nil)
	alg, err := routing.NewOmni(nw)
	if err != nil {
		b.Fatal(err)
	}
	var st routing.PacketState
	alg.Init(&st, 0, 511, nil)
	buf := make([]routing.PortCandidate, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = alg.PortCandidates(int32(i%511), &st, buf[:0])
	}
}

// BenchmarkEscapeCandidates measures escape candidate generation.
func BenchmarkEscapeCandidates(b *testing.B) {
	nw := topo.NewNetwork(topo.MustHyperX(8, 8, 8), nil)
	sub, err := escape.Build(nw, 0)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]routing.PortCandidate, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sub.Candidates(int32(i%511)+1, 0, escape.PhaseUp, buf[:0])
	}
}

// BenchmarkSimulatorCycleRate measures raw engine speed: simulated
// cycles per second on a loaded 4x4x4 network.
func BenchmarkSimulatorCycleRate(b *testing.B) {
	h := bench3D()
	nw := topo.NewNetwork(h, nil)
	pat, err := traffic.NewUniform(h.Switches() * 4)
	if err != nil {
		b.Fatal(err)
	}
	const cycles = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mech, err := core.New(nw, core.PolarizedRoutes, 6)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(sim.RunOptions{
			Net: nw, ServersPerSwitch: 4, Mechanism: mech, Pattern: pat,
			Load: 0.7, WarmupCycles: 0, MeasureCycles: cycles, Seed: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// --- Activity-driven engine vs the full-walk baseline. ---

// inCastPattern directs every server's traffic at one switch: the Fig 10
// in-cast situation in its purest form. In burst mode the drain serializes
// on the destination's ejection bandwidth while the rest of the network
// goes quiet — the regime the engine's dirty-switch tracking and
// idle-cycle fast-forward exist for.
type inCastPattern struct {
	dst     int32 // destination server
	servers int32
}

func (p inCastPattern) Name() string { return "InCast" }

func (p inCastPattern) Dest(src int32, _ *rng.Rand) int32 {
	if src == p.dst {
		return (p.dst + 1) % p.servers
	}
	return p.dst
}

// BenchmarkIdleDrain8x8x8 measures a paper-scale in-cast burst drain: one
// packet per server (one server per switch), all bound for the center
// switch. Completion takes ~8k cycles, almost all of them with a handful
// of dirty switches out of 512.
func BenchmarkIdleDrain8x8x8(b *testing.B) {
	h := topo.MustHyperX(8, 8, 8)
	root := h.ID([]int{3, 3, 3})
	nw := topo.NewNetwork(h, nil)
	mech, err := core.New(nw, core.PolarizedRoutes, 4, core.WithRoot(root))
	if err != nil {
		b.Fatal(err)
	}
	pat := inCastPattern{dst: root, servers: int32(h.Switches())}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.RunOptions{
			Net: nw, ServersPerSwitch: 1, Mechanism: mech, Pattern: pat,
			BurstPackets: 1, Seed: 9, Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// benchLowLoad measures open-loop cycle rate on a paper-scale network at
// the low-load operating points of the figures' left halves — the regime
// that dominates the wall-clock of the latency-vs-load sweeps. At 0.05
// most switches see a packet every few cycles; at 0.01 the arrival
// calendar's fast-forward carries the run.
func benchLowLoad(b *testing.B, load float64, workers int) {
	b.Helper()
	h := topo.MustHyperX(8, 8, 8)
	nw := topo.NewNetwork(h, nil)
	mech, err := core.New(nw, core.PolarizedRoutes, 4)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := traffic.NewUniform(h.Switches() * 8)
	if err != nil {
		b.Fatal(err)
	}
	// Long enough that engine construction (a one-time cost the cycle rate
	// is not about) stays a small fraction of each op.
	const cycles = 6000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.RunOptions{
			Net: nw, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
			Load: load, WarmupCycles: 0, MeasureCycles: cycles, Seed: 9,
			Workers: workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkLowLoadCycleRate runs each point at one worker and at
// GOMAXPROCS: the second row is the phase barrier's, paid three times a
// cycle whenever the due list is at least the worker count long.
func BenchmarkLowLoadCycleRate(b *testing.B) {
	for _, load := range []float64{0.05, 0.01} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("Load%.2f/Workers%d", load, workers), func(b *testing.B) { benchLowLoad(b, load, workers) })
		}
	}
}

// BenchmarkSparseFaultRecovery measures the Figure 10 operating regime: a
// paper-scale network at low load absorbing a sparse schedule of link
// failures. Between faults the network is mostly quiet — the event
// calendar should fast-forward the stretches — but every fault bounds
// the jump (tables rebuild at exactly the scheduled cycle) and the
// recovery transient after each failure runs dense. A fresh network and
// mechanism are built per op because failed links accumulate in the
// fault set.
func BenchmarkSparseFaultRecovery(b *testing.B) {
	h := topo.MustHyperX(8, 8, 8)
	seq := topo.RandomFaultSequence(h, 7)
	const cycles = 6000
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw := topo.NewNetwork(h, topo.NewFaultSet())
		mech, err := core.New(nw, core.PolarizedRoutes, 4)
		if err != nil {
			b.Fatal(err)
		}
		pat, err := traffic.NewUniform(h.Switches() * 8)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sim.Run(sim.RunOptions{
			Net: nw, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
			Load: 0.01, WarmupCycles: 0, MeasureCycles: cycles, Seed: 9,
			Workers: 1,
			FaultSchedule: []sim.FaultEvent{
				{Cycle: 1500, Edge: seq[0]},
				{Cycle: 3000, Edge: seq[1]},
				{Cycle: 4500, Edge: seq[2]},
			},
		}); err != nil {
			b.Fatal(err)
		}
		total += cycles
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkMidFlightSkip isolates the tentpole capability of the
// per-switch next-work engine: jumping while packets are in flight. At
// this load a paper-scale network almost always carries a few packets
// mid-route, so a fast-forward that required a completely empty network
// would nearly never fire; the next-work calendar instead jumps between
// the in-flight packets' event times.
func BenchmarkMidFlightSkip(b *testing.B) {
	h := topo.MustHyperX(8, 8, 8)
	nw := topo.NewNetwork(h, nil)
	mech, err := core.New(nw, core.PolarizedRoutes, 4)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := traffic.NewUniform(h.Switches() * 8)
	if err != nil {
		b.Fatal(err)
	}
	const cycles = 6000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.RunOptions{
			Net: nw, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
			Load: 0.002, WarmupCycles: 0, MeasureCycles: cycles, Seed: 9,
			Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// --- Sequential vs sharded single-run engine. ---

// benchSingleRun8x8x8 measures one paper-scale simulation point (the unit
// behind the -full figures) at the given intra-run worker count. The
// microbenchmark of the allocation hot path itself (bucketed arbiter vs the
// former global sort) lives next to the engine in
// internal/sim/bench_test.go as BenchmarkAllocationStep.
func benchSingleRun8x8x8(b *testing.B, workers int) {
	b.Helper()
	h := topo.MustHyperX(8, 8, 8)
	nw := topo.NewNetwork(h, nil)
	mech, err := core.New(nw, core.PolarizedRoutes, 4)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := traffic.NewUniform(h.Switches() * 8)
	if err != nil {
		b.Fatal(err)
	}
	const cycles = 300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.RunOptions{
			Net: nw, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
			Load: 0.7, WarmupCycles: 0, MeasureCycles: cycles, Seed: 9,
			Workers: workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkSingleRunSequential8x8x8 is the one-core baseline: how PR 1 ran
// every -full simulation point.
func BenchmarkSingleRunSequential8x8x8(b *testing.B) { benchSingleRun8x8x8(b, 1) }

// BenchmarkSingleRunSharded8x8x8 runs the same point with the switch array
// domain-decomposed over one worker per CPU; the Result is bit-identical to
// the sequential run (see TestEngineModesBitIdentical in internal/sim).
func BenchmarkSingleRunSharded8x8x8(b *testing.B) {
	benchSingleRun8x8x8(b, runtime.GOMAXPROCS(0))
}

// BenchmarkCheckpointTax8x8x8 is the price of periodic checkpointing to a
// result store: the loaded 8x8x8 PolSP point at load 0.7 (100 warmup + 300
// measured cycles) with a snapshot every 50 cycles into
// cache.Store.PutCheckpoint, against the same point without checkpoints,
// the two runs alternating. stall-ms/snapshot is the wall time the
// snapshots add to the run, per snapshot: what the cycle loop waits for,
// since the encoding and the store write run beside it.
func BenchmarkCheckpointTax8x8x8(b *testing.B) {
	h := topo.MustHyperX(8, 8, 8)
	nw := topo.NewNetwork(h, nil)
	mech, err := core.New(nw, core.PolarizedRoutes, 6)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := traffic.NewUniform(h.Switches() * 8)
	if err != nil {
		b.Fatal(err)
	}
	store, err := cache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	budget := experiments.Budget{Warmup: 100, Measure: 300}
	key := (&experiments.JobSpec{Topo: experiments.HyperXSpec(h), Per: 8, Mechanism: "PolSP", Pattern: "Uniform",
		VCs: 6, Load: 0.7, Budget: budget, Seed: 1}).Hash()
	run := func(ck *sim.CheckpointOptions) time.Duration {
		start := time.Now()
		if _, err := sim.Run(sim.RunOptions{
			Net: nw, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
			Load: 0.7, WarmupCycles: budget.Warmup, MeasureCycles: budget.Measure, Seed: 1,
			Workers: 1, Checkpoint: ck,
		}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var plain, checkpointed time.Duration
	snapshots := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain += run(nil)
		checkpointed += run(&sim.CheckpointOptions{EveryCycles: 50, SpecHash: key, Sink: func(snap []byte) error {
			snapshots++
			return store.PutCheckpoint(key, snap)
		}})
	}
	if snapshots != 7*b.N {
		b.Fatalf("shipped %d snapshots in %d runs, want 7 per run", snapshots, b.N)
	}
	b.ReportMetric(float64(plain.Milliseconds())/float64(b.N), "plain-ms")
	b.ReportMetric(float64(checkpointed.Milliseconds())/float64(b.N), "checkpointed-ms")
	b.ReportMetric(float64(checkpointed-plain)/1e6/float64(snapshots), "stall-ms/snapshot")
}

// --- Sequential vs parallel experiment runner. ---

// benchSweep regenerates a Figure-4-sized grid (6 mechanisms x 3 patterns x
// the full 10-point load sweep) on the given worker count. Comparing the
// Sequential and Parallel variants measures the runner's wall-clock speedup;
// the rows themselves are bit-identical by construction.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Run(experiments.Runner{Workers: workers}, nil, experiments.SweepGrid(experiments.SweepConfig{
			H:      bench2D(),
			Budget: benchBudget(),
			Seed:   1,
		}))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6*3*10 {
			b.Fatalf("grid produced %d rows, want 180", len(rows))
		}
	}
	b.ReportMetric(float64(180*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepSequential runs the grid on a single worker: the baseline.
func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the same grid on one worker per CPU; on a
// >= 4-core machine it completes the grid at least ~2x faster than
// BenchmarkSweepSequential while producing byte-identical rows.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }
