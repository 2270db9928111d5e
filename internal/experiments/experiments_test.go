package experiments

import (
	"strings"
	"testing"

	"repro/internal/topo"
)

// tinyBudget keeps integration runs fast; rankings are already stable here.
func tinyBudget() Budget { return Budget{Warmup: 1000, Measure: 2000} }

func tiny2D() *topo.HyperX { return topo.MustHyperX(4, 4) }
func tiny3D() *topo.HyperX { return topo.MustHyperX(4, 4, 4) }

func TestFactoryMechanisms(t *testing.T) {
	nw := topo.NewNetwork(tiny2D(), nil)
	for _, name := range append(MechanismNames(), "DOR") {
		mech, err := BuildMechanism(name, nw, 4, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mech.Name() != name {
			t.Errorf("mechanism %q reports name %q", name, mech.Name())
		}
		if mech.VCs() != 4 {
			t.Errorf("%s VCs = %d, want 4", name, mech.VCs())
		}
	}
	if _, err := BuildMechanism("Bogus", nw, 4, 0); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestFactoryPatterns(t *testing.T) {
	sv := svOf(tiny3D())
	for _, name := range PatternNames(3) {
		if _, err := BuildPattern(name, sv, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, alias := range []string{"RSP", "DCR", "RPN"} {
		if _, err := BuildPattern(alias, sv, 1); err != nil {
			t.Errorf("alias %s: %v", alias, err)
		}
	}
	if _, err := BuildPattern("Bogus", sv, 1); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func svOf(h *topo.HyperX) (sv struct {
	H   *topo.HyperX
	Per int
}) {
	// traffic.Servers is a plain struct; rebuild it here to avoid an
	// import cycle in the test helper signature.
	sv.H = h
	sv.Per = h.Dims()[0]
	return sv
}

func TestScalesAndTopologies(t *testing.T) {
	if Topology2D(ScaleFull).Switches() != 256 || Topology3D(ScaleFull).Switches() != 512 {
		t.Error("full-scale topologies are not the paper's")
	}
	if Topology2D(ScaleSmall).Switches() != 64 || Topology3D(ScaleSmall).Switches() != 64 {
		t.Error("small-scale topologies unexpected")
	}
	if ScaleSmall.String() != "small" || ScaleFull.String() != "full" {
		t.Error("scale names wrong")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	r2 := Table3(Topology2D(ScaleFull))
	if r2.Switches != 256 || r2.Radix != 46 || r2.Servers != 4096 || r2.Links != 3840 || r2.Diameter != 2 {
		t.Errorf("2D Table 3 row wrong: %+v", r2)
	}
	r3 := Table3(Topology3D(ScaleFull))
	if r3.Switches != 512 || r3.Radix != 29 || r3.Servers != 4096 || r3.Links != 5376 || r3.Diameter != 3 {
		t.Errorf("3D Table 3 row wrong: %+v", r3)
	}
	if r3.AvgDistance != 2.625 {
		t.Errorf("3D avg distance %v, want 2.625", r3.AvgDistance)
	}
	out := RenderTable3Rows(Table3Rows(0, Topology2D(ScaleFull), Topology3D(ScaleFull)))
	if !strings.Contains(out, "HyperX 16x16") || !strings.Contains(out, "5376") {
		t.Error("RenderTable3Rows missing content")
	}
}

func TestTable4AndTable2Render(t *testing.T) {
	if len(Table4()) != 6 {
		t.Fatal("Table 4 must list six mechanisms")
	}
	out := RenderTable4()
	for _, name := range MechanismNames() {
		if !strings.Contains(out, name) {
			t.Errorf("Table 4 render missing %s", name)
		}
	}
	t2 := RenderTable2()
	for _, want := range []string{"8 packets", "4 packets", "16 phits", "virtual cut-through"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 render missing %q", want)
		}
	}
}

func TestFig1SmallNetwork(t *testing.T) {
	h := tiny3D()
	points := Fig1(h, []uint64{1, 2}, 16, 0)
	if len(points) == 0 {
		t.Fatal("no points")
	}
	// Healthy diameter 3; monotone nondecreasing until disconnection; ends
	// disconnected for both seeds (the sequence exhausts all links).
	perSeed := make(map[uint64][]Fig1Point)
	for _, p := range points {
		perSeed[p.Seed] = append(perSeed[p.Seed], p)
	}
	if len(perSeed) != 2 {
		t.Fatalf("expected 2 seeds, got %d", len(perSeed))
	}
	for seed, list := range perSeed {
		if list[0].Faults != 0 || list[0].Diameter != 3 {
			t.Errorf("seed %d: first point %+v", seed, list[0])
		}
		prev := int32(0)
		for _, p := range list {
			if p.Disconnected {
				continue
			}
			if p.Diameter < prev {
				t.Errorf("seed %d: diameter decreased to %d", seed, p.Diameter)
			}
			prev = p.Diameter
		}
		if !list[len(list)-1].Disconnected {
			t.Errorf("seed %d: sequence never disconnected", seed)
		}
	}
	out := RenderFig1(h, points)
	if !strings.Contains(out, "diameter 3 first seen at 0 faults") {
		t.Errorf("render missing baseline: %s", out)
	}
}

// TestFig4Shape verifies the qualitative content of Figure 4 on a small 2D
// HyperX: on Uniform, Valiant caps near 0.5 and everything else is clearly
// higher and mutually close; on DCR, Minimal is the clear loser and the
// adaptive mechanisms track Valiant's optimal 0.5.
func TestFig4Shape(t *testing.T) {
	rows, err := Run(Runner{}, nil, SweepGrid(SweepConfig{
		H:        tiny2D(),
		Patterns: []string{"Uniform", "Dimension Complement Reverse"},
		Loads:    []float64{1.0},
		Budget:   tinyBudget(),
		Seed:     5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	sat := SaturationThroughput(rows)
	uni := sat["Uniform"]
	if uni["Valiant"] > 0.62 {
		t.Errorf("Valiant uniform %.3f, want near 0.5", uni["Valiant"])
	}
	for _, m := range []string{"Minimal", "OmniWAR", "Polarized", "OmniSP", "PolSP"} {
		if uni[m] < 0.72 {
			t.Errorf("%s uniform %.3f, want > 0.72", m, uni[m])
		}
		if uni[m] <= uni["Valiant"] {
			t.Errorf("%s (%.3f) must beat Valiant (%.3f) on uniform", m, uni[m], uni["Valiant"])
		}
	}
	dcr := sat["Dimension Complement Reverse"]
	for _, m := range []string{"Valiant", "OmniWAR", "Polarized", "OmniSP", "PolSP"} {
		if dcr["Minimal"] >= dcr[m]-0.05 {
			t.Errorf("Minimal DCR %.3f not clearly below %s %.3f", dcr["Minimal"], m, dcr[m])
		}
		if dcr[m] < 0.4 {
			t.Errorf("%s DCR %.3f, want near 0.5", m, dcr[m])
		}
	}
}

// TestFig5RPNShape verifies the paper's headline Figure 5 finding on a
// small 3D HyperX: on Regular Permutation to Neighbour, Omnidimensional
// routes cap at 0.5 while Polarized routes exceed it; Minimal is worst.
func TestFig5RPNShape(t *testing.T) {
	rows, err := Run(Runner{}, nil, SweepGrid(SweepConfig{
		H:        tiny3D(),
		Patterns: []string{"Regular Permutation to Neighbour"},
		Loads:    []float64{1.0},
		Budget:   tinyBudget(),
		Seed:     7,
	}))
	if err != nil {
		t.Fatal(err)
	}
	sat := SaturationThroughput(rows)["Regular Permutation to Neighbour"]
	t.Logf("RPN saturation: %v", sat)
	if sat["Minimal"] > 0.3 {
		t.Errorf("Minimal RPN %.3f, want worst (~0.25)", sat["Minimal"])
	}
	for _, m := range []string{"OmniWAR", "OmniSP", "Valiant"} {
		if sat[m] < 0.42 || sat[m] > 0.56 {
			t.Errorf("%s RPN %.3f, want ~0.5 (aligned-route bound)", m, sat[m])
		}
	}
	for _, m := range []string{"Polarized", "PolSP"} {
		if sat[m] < 0.56 {
			t.Errorf("%s RPN %.3f, must exceed the 0.5 bound", m, sat[m])
		}
		if sat[m] <= sat["OmniWAR"] {
			t.Errorf("%s (%.3f) must beat OmniWAR (%.3f) on RPN", m, sat[m], sat["OmniWAR"])
		}
	}
}

// TestFig6Shape verifies graceful degradation under growing random faults.
func TestFig6Shape(t *testing.T) {
	rows, err := Run(Runner{}, nil, Fig6Grid(Fig6Config{
		H:         tiny3D(),
		MaxFaults: 30,
		Step:      15,
		Patterns:  []string{"Uniform"},
		Budget:    tinyBudget(),
		Seed:      2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	byMech := make(map[string][]Fig6Row)
	for _, r := range rows {
		byMech[r.Mechanism] = append(byMech[r.Mechanism], r)
	}
	for mech, list := range byMech {
		if len(list) != 3 {
			t.Fatalf("%s has %d points, want 3", mech, len(list))
		}
		healthy, faulty := list[0].Accepted, list[len(list)-1].Accepted
		t.Logf("%s: healthy=%.3f at30faults=%.3f", mech, healthy, faulty)
		if faulty < 0.5*healthy {
			t.Errorf("%s collapsed under faults: %.3f -> %.3f", mech, healthy, faulty)
		}
		if list[len(list)-1].Escape <= list[0].Escape {
			t.Errorf("%s escape usage did not grow with faults", mech)
		}
	}
	out := RenderFig6("fig6", rows)
	if !strings.Contains(out, "OmniSP") || !strings.Contains(out, "PolSP") {
		t.Error("render missing mechanisms")
	}
}

// TestShapesExperiment verifies Figures 8/9 structure: results for every
// (mechanism, pattern, shape), bounded degradation on Row, the Cross/Star
// clearly harsher than Row on Uniform.
func TestShapesExperiment(t *testing.T) {
	rows, err := Run(Runner{}, nil, ShapesGrid(ShapesConfig{
		H:        tiny2D(),
		Patterns: []string{"Uniform"},
		Budget:   tinyBudget(),
		Seed:     3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*3 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	drops := make(map[string]map[string]float64) // mech -> shape -> drop
	for _, r := range rows {
		if r.Accepted <= 0 {
			t.Errorf("%s under %s moved no traffic", r.Mechanism, r.Shape)
		}
		if r.Healthy <= 0 {
			t.Errorf("missing healthy reference for %s", r.Mechanism)
		}
		if drops[r.Mechanism] == nil {
			drops[r.Mechanism] = make(map[string]float64)
		}
		drops[r.Mechanism][r.Shape] = (r.Healthy - r.Accepted) / r.Healthy
	}
	for mech, d := range drops {
		t.Logf("%s drops: row=%.2f subplane=%.2f cross=%.2f", mech, d["Row"], d["Subplane"], d["Cross"])
		if d["Cross"] < d["Row"]-0.02 {
			t.Errorf("%s: Cross (%.2f) should be at least as harsh as Row (%.2f)", mech, d["Cross"], d["Row"])
		}
	}
	out := RenderShapes("fig8", rows)
	if !strings.Contains(out, "Cross") || !strings.Contains(out, "Subplane") {
		t.Error("render missing shapes")
	}
}

// TestFig10Shape verifies the completion-time experiment: both SurePath
// variants complete the burst, and the paper's key inversion holds — the
// mechanism with the higher (or equal) peak can still have the larger
// completion time; at minimum, completion times and series are sane.
func TestFig10Shape(t *testing.T) {
	results, err := Run(Runner{}, nil, Fig10Grid(Fig10Config{
		H:            tiny3D(),
		BurstPhits:   1600, // 100 packets per server, scaled down
		SeriesBucket: 1000,
		Seed:         4,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	var omni, pol *Fig10Result
	for i := range results {
		r := &results[i]
		if r.CompletionTime <= 0 {
			t.Errorf("%s completion time %d", r.Mechanism, r.CompletionTime)
		}
		if len(r.Series) == 0 {
			t.Errorf("%s has no series", r.Mechanism)
		}
		if r.PeakAccepted <= 0 {
			t.Errorf("%s peak %.3f", r.Mechanism, r.PeakAccepted)
		}
		switch r.Mechanism {
		case "OmniSP":
			omni = r
		case "PolSP":
			pol = r
		}
	}
	if omni == nil || pol == nil {
		t.Fatal("missing mechanisms")
	}
	t.Logf("OmniSP: completion=%d peak=%.3f; PolSP: completion=%d peak=%.3f",
		omni.CompletionTime, omni.PeakAccepted, pol.CompletionTime, pol.PeakAccepted)
	// The paper's Star in-cast effect: OmniSP takes longer to drain.
	if omni.CompletionTime <= pol.CompletionTime {
		t.Errorf("expected OmniSP completion (%d) > PolSP (%d), the paper's in-cast effect",
			omni.CompletionTime, pol.CompletionTime)
	}
	out := RenderFig10("fig10", results)
	if !strings.Contains(out, "completion-time ratio") {
		t.Error("render missing ratio")
	}
}

func TestRenderFig7(t *testing.T) {
	out, err := RenderFig7(Topology3D(ScaleFull), Topology3D(ScaleFull).ID([]int{3, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Row", "Subcube", "Star", "63 links", "root keeps 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig7 render missing %q in:\n%s", want, out)
		}
	}
}

// TestSection7Shape verifies the cross-topology escape comparison: HyperX
// must show the best escape stretch and by far the strongest escape-only
// and SurePath throughput, reproducing the paper's Section 7 claim.
func TestSection7Shape(t *testing.T) {
	rows, err := Run(Runner{}, nil, Section7Grid(1, Budget{Warmup: 600, Measure: 1200}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]Section7Row{}
	for _, r := range rows {
		byName[r.Topology[:4]] = r
		if r.AvgStretch < 1.0 {
			t.Errorf("%s stretch %.2f below 1", r.Topology, r.AvgStretch)
		}
	}
	hx, tor, df := byName["Hype"], byName["Toru"], byName["Drag"]
	if hx.EscOnlyAccepted <= 2*tor.EscOnlyAccepted || hx.EscOnlyAccepted <= 2*df.EscOnlyAccepted {
		t.Errorf("HyperX escape-only %.3f not clearly above torus %.3f / dragonfly %.3f",
			hx.EscOnlyAccepted, tor.EscOnlyAccepted, df.EscOnlyAccepted)
	}
	if hx.PolSPAccepted <= tor.PolSPAccepted || hx.PolSPAccepted <= df.PolSPAccepted {
		t.Errorf("HyperX PolSP %.3f not above torus %.3f / dragonfly %.3f",
			hx.PolSPAccepted, tor.PolSPAccepted, df.PolSPAccepted)
	}
	if df.AvgStretch <= hx.AvgStretch {
		t.Errorf("dragonfly stretch %.2f not above HyperX %.2f", df.AvgStretch, hx.AvgStretch)
	}
	out := RenderSection7("section7", rows)
	if !strings.Contains(out, "Torus") || !strings.Contains(out, "Dragonfly") {
		t.Error("render missing topologies")
	}
}

// TestRecoveryExperiment verifies the live-failure extension: both
// SurePath variants absorb failures mid-run with bounded packet loss and
// no lasting throughput damage.
func TestRecoveryExperiment(t *testing.T) {
	results, err := Run(Runner{}, nil, RecoveryGrid(RecoveryConfig{
		H:      tiny2D(),
		Load:   0.5,
		Faults: 5,
		Cycles: 8000,
		Seed:   11,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.FinalFaults != 5 {
			t.Errorf("%s ended with %d faults, want 5", r.Mechanism, r.FinalFaults)
		}
		if r.LostPackets > 50 {
			t.Errorf("%s lost %d packets over 5 failures", r.Mechanism, r.LostPackets)
		}
		if r.PreFaultAvg <= 0 || r.PostFaultAvg < 0.8*r.PreFaultAvg {
			t.Errorf("%s did not recover: pre %.3f post %.3f", r.Mechanism, r.PreFaultAvg, r.PostFaultAvg)
		}
	}
	out := RenderRecovery("recovery", results)
	if !strings.Contains(out, "live failures") || !strings.Contains(out, "*") {
		t.Error("render missing fault marks")
	}
}

func TestSweepRenderAndDefaults(t *testing.T) {
	rows, err := Run(Runner{}, nil, SweepGrid(SweepConfig{
		H:          tiny2D(),
		Mechanisms: []string{"Minimal"},
		Patterns:   []string{"Uniform"},
		Loads:      []float64{0.2, 0.6},
		Budget:     tinyBudget(),
		Seed:       9,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Below saturation accepted tracks offered.
	if rows[0].Accepted < 0.17 || rows[0].Accepted > 0.23 {
		t.Errorf("accepted %.3f at offered 0.2", rows[0].Accepted)
	}
	if rows[1].Latency <= rows[0].Latency {
		t.Error("latency must grow with load")
	}
	out := RenderSweep("sweep", rows)
	if !strings.Contains(out, "Uniform") || !strings.Contains(out, "0.20") {
		t.Errorf("render missing content:\n%s", out)
	}
}
