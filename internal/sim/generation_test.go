package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// mechanismsUnderTest builds the paper's six mechanisms directly from the
// routing/core packages (the experiments factory would be an import
// cycle), each constructor returning a fresh mechanism on a private
// fault-free network over h.
func mechanismsUnderTest(t *testing.T, h *topo.HyperX) []struct {
	name  string
	build func() (routing.Mechanism, *topo.Network)
} {
	t.Helper()
	ladder := func(alg func(*topo.Network) (routing.Algorithm, error), paths int, name string) func() (routing.Mechanism, *topo.Network) {
		return func() (routing.Mechanism, *topo.Network) {
			nw := topo.NewNetwork(h, nil)
			a, err := alg(nw)
			if err != nil {
				t.Fatal(err)
			}
			m, err := routing.NewLadder(a, 4, paths, name)
			if err != nil {
				t.Fatal(err)
			}
			return m, nw
		}
	}
	minimal := func(nw *topo.Network) (routing.Algorithm, error) { return routing.NewMinimal(nw) }
	valiant := func(nw *topo.Network) (routing.Algorithm, error) { return routing.NewValiant(nw) }
	polarized := func(nw *topo.Network) (routing.Algorithm, error) { return routing.NewPolarized(nw) }
	sure := func(routes core.BaseRoutes) func() (routing.Mechanism, *topo.Network) {
		return func() (routing.Mechanism, *topo.Network) {
			nw := topo.NewNetwork(h, nil)
			m, err := core.New(nw, routes, 4)
			if err != nil {
				t.Fatal(err)
			}
			return m, nw
		}
	}
	return []struct {
		name  string
		build func() (routing.Mechanism, *topo.Network)
	}{
		{"Minimal", ladder(minimal, 2, "Minimal")},
		{"Valiant", ladder(valiant, 1, "Valiant")},
		{"Polarized", ladder(polarized, 1, "Polarized")},
		{"OmniWAR", func() (routing.Mechanism, *topo.Network) {
			nw := topo.NewNetwork(h, nil)
			m, err := routing.NewOmniWAR(nw)
			if err != nil {
				t.Fatal(err)
			}
			return m, nw
		}},
		{"OmniSP", sure(core.OmniRoutes)},
		{"PolSP", sure(core.PolarizedRoutes)},
	}
}

// runOpenLoopEngine runs an open-loop configuration through the real
// runOpenLoop but keeps the engine inspectable, so tests can read the
// per-server generation counters the Result folds into a single Jain
// index.
func runOpenLoopEngine(t *testing.T, o RunOptions) (*engine, *Result) {
	t.Helper()
	if o.Config == (Config{}) {
		o.Config = DefaultConfig()
	}
	e, err := newEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	e.warmStart = o.WarmupCycles
	e.warmEnd = o.WarmupCycles + o.MeasureCycles
	res, err := e.runOpenLoop(o)
	if err != nil {
		t.Fatalf("runOpenLoop: %v", err)
	}
	return e, res
}

// TestGeometricGenerationEquivalence is the statistical validation of the
// geometric arrival calendar: for every mechanism the marginal traffic
// process is the Bernoulli one the paper specifies — every server's
// measurement-window arrival count lies within binomial confidence bounds
// of m*p, and the Jain fairness of generated load is near 1.
func TestGeometricGenerationEquivalence(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	const (
		per     = 2
		load    = 0.2
		measure = 6000
		z       = 5.5 // per-server false-positive ~2e-8; ~200 trials total
	)
	pat, err := traffic.NewUniform(h.Switches() * per)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	p := load / float64(cfg.PacketPhits)
	mean := measure * p
	margin := z * math.Sqrt(measure*p*(1-p))
	for _, mc := range mechanismsUnderTest(t, h) {
		t.Run(mc.name, func(t *testing.T) {
			mech, nw := mc.build()
			e, res := runOpenLoopEngine(t, RunOptions{
				Net: nw, ServersPerSwitch: per, Mechanism: mech, Pattern: pat,
				Load: load, WarmupCycles: 300, MeasureCycles: measure,
				Seed: 1234, Config: cfg,
			})
			if res.StalledGenerations != 0 {
				t.Fatalf("%d stalled generations perturb the binomial law at load %.2f",
					res.StalledGenerations, load)
			}
			for g, phits := range e.genPhits {
				count := float64(phits) / float64(cfg.PacketPhits)
				if math.Abs(count-mean) > margin {
					t.Errorf("server %d generated %.0f window packets, want %.1f ± %.1f",
						g, count, mean, margin)
				}
			}
			if res.JainIndex < 0.95 {
				t.Errorf("Jain index implausibly unfair: %.4f", res.JainIndex)
			}
		})
	}
}

// TestGeometricTotalGenerationBounds checks the aggregate law at a second
// operating point (very low load, the fast-forward regime): total window
// generation across all servers within binomial bounds.
func TestGeometricTotalGenerationBounds(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	const (
		per     = 2
		load    = 0.01
		measure = 40000
	)
	pat, err := traffic.NewUniform(h.Switches() * per)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	p := load / float64(cfg.PacketPhits)
	n := float64(h.Switches()*per) * measure
	mean := n * p
	margin := 5.5 * math.Sqrt(n*p*(1-p))
	nw := topo.NewNetwork(h, nil)
	mech, err := core.New(nw, core.PolarizedRoutes, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunOptions{
		Net: nw, ServersPerSwitch: per, Mechanism: mech, Pattern: pat,
		Load: load, WarmupCycles: 0, MeasureCycles: measure,
		Seed: 99, Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(res.GeneratedPackets); math.Abs(got-mean) > margin {
		t.Errorf("%.0f total window packets, want %.0f ± %.0f", got, mean, margin)
	}
}
