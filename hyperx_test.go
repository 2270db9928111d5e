package hyperx

import (
	"fmt"
	"log"
	"testing"
)

// TestPublicAPIRoundTrip exercises the whole facade the way a downstream
// user would: topology, faults, mechanism, pattern, run.
func TestPublicAPIRoundTrip(t *testing.T) {
	h, err := NewTopology(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq := RandomFaultSequence(h, 3)
	net := NewNetwork(h, NewFaultSet(seq[:4]...))
	if !net.Graph().Connected() {
		t.Skip("fault draw disconnected")
	}
	mech, err := NewMechanism("PolSP", net, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := NewPattern("RSP", h, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunOptions{
		Net: net, ServersPerSwitch: 4, Mechanism: mech, Pattern: pat,
		Load: 0.4, WarmupCycles: 800, MeasureCycles: 1600, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptedLoad < 0.3 {
		t.Errorf("accepted %.3f at offered 0.4 under 4 faults", res.AcceptedLoad)
	}
	if res.JainIndex <= 0 || res.JainIndex > 1 {
		t.Errorf("Jain %.4f out of range", res.JainIndex)
	}
}

// TestFacadeRunSpecs is the package doc's grid snippet: specs as data, a
// Runner value with a result cache, and a second RunSpecs that is all hits
// and the same bytes.
func TestFacadeRunSpecs(t *testing.T) {
	h, _ := NewTopology(4, 4)
	shape, err := TopologySpecOf(h)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]JobSpec, 2)
	for i, load := range []float64{0.2, 0.6} {
		specs[i] = JobSpec{Topo: shape, Per: 4, Mechanism: "PolSP", Pattern: "Uniform", VCs: 4,
			Load: load, Budget: Budget{Warmup: 200, Measure: 400}, Seed: JobSeed(1, i), PatternSeed: 1}
	}
	store, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Workers: 2, Cache: store}
	first, err := RunSpecs(r, specs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunSpecs(r, specs)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := store.Stats(); hits != 2 || misses != 2 {
		t.Errorf("two runs of two specs: %d hits, %d misses, want 2 and 2", hits, misses)
	}
	for i := range specs {
		if string(first[i].AppendBinary(nil)) != string(second[i].AppendBinary(nil)) {
			t.Errorf("spec %d: the cached result is not the computed one", i)
		}
	}
}

func TestFacadeNames(t *testing.T) {
	if len(MechanismNames()) != 6 {
		t.Error("MechanismNames must list the paper's six mechanisms")
	}
	if len(PatternNames(3)) != 4 || len(PatternNames(2)) != 4 {
		t.Errorf("PatternNames lengths: %d/%d", len(PatternNames(2)), len(PatternNames(3)))
	}
	cfg := DefaultConfig()
	if cfg.InputBufPkts != 8 || cfg.PacketPhits != 16 {
		t.Error("DefaultConfig does not match Table 2")
	}
}

func TestFacadeShapes(t *testing.T) {
	h, _ := NewTopology(8, 8)
	for _, kind := range []ShapeKind{ShapeRow, ShapeSubBlock, ShapeCross} {
		edges, err := PaperShape(h, 0, kind)
		if err != nil || len(edges) == 0 {
			t.Errorf("%v: %v (%d edges)", kind, err, len(edges))
		}
	}
}

func TestFacadeSurePathOptions(t *testing.T) {
	h, _ := NewTopology(4, 4)
	net := NewNetwork(h, nil)
	mech, err := NewMechanism("OmniSP", net, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	sp, ok := mech.(*SurePath)
	if !ok {
		t.Fatal("OmniSP is not a *SurePath")
	}
	if sp.Root() != 5 {
		t.Errorf("root %d, want 5", sp.Root())
	}
	if sp.Escape().RuleUsed() != RulePhased {
		t.Error("default escape rule is not RulePhased")
	}
}

func TestFacadeOtherTopologies(t *testing.T) {
	tor, err := NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	df, err := NewDragonfly(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, topology := range []Switched{tor, df} {
		net := NewNetwork(topology, nil)
		mech, err := NewMechanism("PolSP", net, 4, 0)
		if err != nil {
			t.Fatalf("%s: %v", topology, err)
		}
		pat, err := NewUniformPattern(topology.Switches() * 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(RunOptions{
			Net: net, ServersPerSwitch: 2, Mechanism: mech, Pattern: pat,
			Load: 0.1, WarmupCycles: 400, MeasureCycles: 1200, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", topology, err)
		}
		if res.AcceptedLoad < 0.07 {
			t.Errorf("%s accepted %.3f at offered 0.1", topology, res.AcceptedLoad)
		}
	}
	if _, err := NewTorus(2); err == nil {
		t.Error("invalid torus accepted")
	}
	if _, err := NewDragonfly(0, 0); err == nil {
		t.Error("invalid dragonfly accepted")
	}
}

func TestFacadeCustomSurePath(t *testing.T) {
	h, _ := NewTopology(4, 4)
	net := NewNetwork(h, nil)
	// Custom SurePath over DAL with the literal escape rule and a pinned
	// root, through the facade options.
	dal, err := NewDALAlgorithm(net)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSurePath(net, dal, 3, WithRoot(7), WithEscapeRule(RuleUDTable))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name() != "DALSP" || sp.Root() != 7 || sp.Escape().RuleUsed() != RuleUDTable {
		t.Errorf("custom SurePath config wrong: %s root=%d rule=%v",
			sp.Name(), sp.Root(), sp.Escape().RuleUsed())
	}
	seq := RandomFaultSequence(h, 4)
	if len(seq) != h.Links() {
		t.Errorf("fault sequence %d, want %d", len(seq), h.Links())
	}
}

// Example demonstrates the quickstart flow; the output is deterministic
// per seed.
func Example() {
	h, err := NewTopology(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	net := NewNetwork(h, nil)
	mech, err := NewMechanism("PolSP", net, 4, 0)
	if err != nil {
		log.Fatal(err)
	}
	pat, err := NewPattern("Uniform", h, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := Run(RunOptions{
		Net: net, ServersPerSwitch: 4, Mechanism: mech, Pattern: pat,
		Load: 0.25, WarmupCycles: 1000, MeasureCycles: 4000, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accepted within 10%% of offered: %v\n", res.AcceptedLoad > 0.225 && res.AcceptedLoad < 0.275)
	// Output:
	// accepted within 10% of offered: true
}
