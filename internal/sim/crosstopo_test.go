package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestTableMechanismsOnTorus verifies the topology-generalized stack: the
// table-driven mechanisms (Minimal, Valiant, Polarized-ladder) and
// SurePath simulate correctly on a torus.
func TestTableMechanismsOnTorus(t *testing.T) {
	tr := topo.MustTorus(4, 4)
	nw := topo.NewNetwork(tr, nil)
	pat, err := traffic.NewUniform(tr.Switches() * 2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(name string) routing.Mechanism {
		switch name {
		case "Minimal":
			alg, err := routing.NewMinimal(nw)
			if err != nil {
				t.Fatal(err)
			}
			m, err := routing.NewLadder(alg, 8, 2, "Minimal")
			if err != nil {
				t.Fatal(err)
			}
			return m
		case "Valiant":
			alg, err := routing.NewValiant(nw)
			if err != nil {
				t.Fatal(err)
			}
			m, err := routing.NewLadder(alg, 8, 1, "Valiant")
			if err != nil {
				t.Fatal(err)
			}
			return m
		case "PolSP":
			m, err := core.New(nw, core.PolarizedRoutes, 4)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		t.Fatalf("unknown %q", name)
		return nil
	}
	for _, name := range []string{"Minimal", "Valiant", "PolSP"} {
		res, err := Run(RunOptions{
			Net: nw, ServersPerSwitch: 2, Mechanism: build(name), Pattern: pat,
			Load: 0.2, WarmupCycles: 800, MeasureCycles: 1600, Seed: 5,
		})
		if err != nil {
			t.Fatalf("%s on torus: %v", name, err)
		}
		if res.AcceptedLoad < 0.17 {
			t.Errorf("%s on torus accepted %.3f at offered 0.2", name, res.AcceptedLoad)
		}
	}
}

// TestCoordinateMechanismsRejectTorus confirms the HyperX-only algorithms
// fail loudly rather than routing nonsense on other topologies.
func TestCoordinateMechanismsRejectTorus(t *testing.T) {
	nw := topo.NewNetwork(topo.MustTorus(4, 4), nil)
	if _, err := routing.NewOmni(nw); err == nil {
		t.Error("Omni accepted a torus")
	}
	if _, err := routing.NewDOR(nw); err == nil {
		t.Error("DOR accepted a torus")
	}
	if _, err := routing.NewDAL(nw); err == nil {
		t.Error("DAL accepted a torus")
	}
	if _, err := routing.NewOmniWAR(nw); err == nil {
		t.Error("OmniWAR accepted a torus")
	}
}

// TestDALMechanismSimulates runs the DAL factory configuration end to end
// under the paper's Dimension Complement Reverse pattern, and confirms
// Uniform traffic flows on a dragonfly via PolSP too.
func TestDALMechanismSimulates(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	alg, err := routing.NewDAL(nw)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := routing.NewLadder(alg, 4, 1, "DAL")
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewDimensionComplementReverse(traffic.Servers{H: h, Per: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunOptions{
		Net: nw, ServersPerSwitch: 4, Mechanism: mech, Pattern: pat,
		Load: 0.4, WarmupCycles: 800, MeasureCycles: 1600, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// DAL saturates under DCR on the 4x4 near 0.5 (offered 1.0 accepts
	// 0.498-0.501 over seeds 1-8), so offered 0.4 sits below saturation and
	// should be delivered: seeds 1-8 accept 0.389-0.404 (seed 6: 0.395). The
	// floor leaves ~5 % for the window's noise and still fails a router that
	// stalls part of the adversarial flows.
	if res.AcceptedLoad < 0.37 {
		t.Errorf("DAL under DCR accepted %.3f at offered 0.4", res.AcceptedLoad)
	}

	// Dragonfly + PolSP at low load.
	df := topo.MustDragonfly(4, 1) // 5 groups of 4 = 20 switches
	nwd := topo.NewNetwork(df, nil)
	sp, err := core.New(nwd, core.PolarizedRoutes, 4)
	if err != nil {
		t.Fatal(err)
	}
	u, err := traffic.NewUniform(df.Switches() * 2)
	if err != nil {
		t.Fatal(err)
	}
	resd, err := Run(RunOptions{
		Net: nwd, ServersPerSwitch: 2, Mechanism: sp, Pattern: u,
		Load: 0.15, WarmupCycles: 800, MeasureCycles: 1600, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resd.AcceptedLoad < 0.12 {
		t.Errorf("PolSP on dragonfly accepted %.3f at offered 0.15", resd.AcceptedLoad)
	}
}
