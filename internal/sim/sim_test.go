package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// buildMech constructs a named mechanism on nw: the ladders and SurePath
// over 2n VCs on an n-dimensional HyperX (8 on a torus or dragonfly, room
// for the ladders' longest routes), DOR over 4, DAL over 6 and the
// escape-only baseline over one.
func buildMech(t testing.TB, name string, nw *topo.Network) routing.Mechanism {
	t.Helper()
	vcs := 8
	if h, ok := nw.H.(*topo.HyperX); ok {
		vcs = 2 * h.NDims()
	}
	var (
		mech routing.Mechanism
		err  error
	)
	switch name {
	case "Minimal":
		var alg *routing.MinimalAlg
		if alg, err = routing.NewMinimal(nw); err == nil {
			mech, err = routing.NewLadder(alg, vcs, 2, "Minimal")
		}
	case "Valiant":
		var alg *routing.ValiantAlg
		if alg, err = routing.NewValiant(nw); err == nil {
			mech, err = routing.NewLadder(alg, vcs, 1, "Valiant")
		}
	case "OmniWAR":
		mech, err = routing.NewOmniWAR(nw)
	case "Polarized":
		var alg *routing.PolarizedAlg
		if alg, err = routing.NewPolarized(nw); err == nil {
			mech, err = routing.NewLadder(alg, vcs, 1, "Polarized")
		}
	case "DOR":
		var alg *routing.DORAlg
		if alg, err = routing.NewDOR(nw); err == nil {
			mech, err = routing.NewLadder(alg, 4, 1, "DOR")
		}
	case "DAL":
		var alg *routing.DALAlg
		if alg, err = routing.NewDAL(nw); err == nil {
			mech, err = routing.NewLadder(alg, 6, 1, "DAL")
		}
	case "OmniSP":
		mech, err = core.New(nw, core.OmniRoutes, vcs)
	case "PolSP":
		mech, err = core.New(nw, core.PolarizedRoutes, vcs)
	case "EscapeOnly":
		mech, err = core.NewEscapeOnly(nw, 0, 0, 1)
	default:
		t.Fatalf("unknown mechanism %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return mech
}

func uniformOn(t testing.TB, h *topo.HyperX, per int) traffic.Pattern {
	t.Helper()
	u, err := traffic.NewUniform(h.Switches() * per)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestRunValidation(t *testing.T) {
	h := topo.MustHyperX(3, 3)
	nw := topo.NewNetwork(h, nil)
	mech := buildMech(t, "Minimal", nw)
	pat := uniformOn(t, h, 3)
	base := RunOptions{
		Net: nw, ServersPerSwitch: 3, Mechanism: mech, Pattern: pat,
		Load: 0.5, WarmupCycles: 10, MeasureCycles: 10, Seed: 1,
	}
	bad := base
	bad.Net = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil Net accepted")
	}
	bad = base
	bad.Load = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero load accepted")
	}
	bad = base
	bad.Load = 1.5
	if _, err := Run(bad); err == nil {
		t.Error("load > 1 accepted")
	}
	bad = base
	bad.ServersPerSwitch = 0
	if _, err := Run(bad); err == nil {
		t.Error("0 servers accepted")
	}
	bad = base
	bad.MeasureCycles = 0
	if _, err := Run(bad); err == nil {
		t.Error("0 measure cycles accepted")
	}
	bad = base
	bad.WarmupCycles = -1
	if _, err := Run(bad); err == nil {
		t.Error("negative warmup accepted")
	}
	bad = base
	bad.Config = Config{InputBufPkts: -1}
	if _, err := Run(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestNegativeWorkersRejected locks in option validation.
func TestNegativeWorkersRejected(t *testing.T) {
	h := topo.MustHyperX(3, 3)
	nw := topo.NewNetwork(h, nil)
	pat := uniformOn(t, h, 3)
	_, err := Run(RunOptions{
		Net: nw, ServersPerSwitch: 3, Mechanism: buildMech(t, "Minimal", nw),
		Pattern: pat, Load: 0.5, WarmupCycles: 10, MeasureCycles: 10, Seed: 1,
		Workers: -1,
	})
	if err == nil {
		t.Fatal("negative Workers accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	fields := []func(*Config){
		func(c *Config) { c.InputBufPkts = 0 },
		func(c *Config) { c.OutputBufPkts = 0 },
		func(c *Config) { c.PacketPhits = 0 },
		func(c *Config) { c.LinkLatency = -1 },
		func(c *Config) { c.XbarLatency = -1 },
		func(c *Config) { c.XbarSpeedup = 0 },
		func(c *Config) { c.InjQueuePkts = 0 },
		func(c *Config) { c.WatchdogCycles = -1 },
	}
	for i, mutate := range fields {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestDeterminism: a different seed must (overwhelmingly) give a different
// run. That the same seed gives the same bytes is the repeat column of
// TestEngineModesBitIdentical.
func TestDeterminism(t *testing.T) {
	h := topo.MustHyperX(3, 3)
	nw := topo.NewNetwork(h, nil)
	pat := uniformOn(t, h, 3)
	run := func(seed uint64) *Result {
		res, err := Run(RunOptions{
			Net: nw, ServersPerSwitch: 3, Mechanism: buildMech(t, "PolSP", nw),
			Pattern: pat, Load: 0.7, WarmupCycles: 500, MeasureCycles: 1000, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(43)
	if a.DeliveredPackets == b.DeliveredPackets && a.AvgLatency == b.AvgLatency {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestAllMechanismsDeliverUniform(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	pat := uniformOn(t, h, 4)
	for _, name := range []string{"Minimal", "Valiant", "OmniWAR", "Polarized", "OmniSP", "PolSP"} {
		res, err := Run(RunOptions{
			Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, name, nw),
			Pattern: pat, Load: 0.3, WarmupCycles: 500, MeasureCycles: 1500, Seed: 7,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.AcceptedLoad < 0.25 {
			t.Errorf("%s accepted %.3f at offered 0.3", name, res.AcceptedLoad)
		}
		if res.AvgLatency <= 0 {
			t.Errorf("%s latency %.1f", name, res.AvgLatency)
		}
	}
}

func TestValiantHalvesUniformThroughput(t *testing.T) {
	// The classical Valiant property (visible in Figures 4 and 5): on
	// Uniform traffic Valiant saturates near 0.5 while adaptive mechanisms
	// exceed 0.8.
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	pat := uniformOn(t, h, 4)
	sat := func(name string) float64 {
		res, err := Run(RunOptions{
			Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, name, nw),
			Pattern: pat, Load: 1.0, WarmupCycles: 1500, MeasureCycles: 2500, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res.AcceptedLoad
	}
	valiant := sat("Valiant")
	polsp := sat("PolSP")
	t.Logf("uniform saturation: Valiant=%.3f PolSP=%.3f", valiant, polsp)
	if valiant > 0.65 {
		t.Errorf("Valiant saturates at %.3f, expected near 0.5", valiant)
	}
	if polsp < 0.75 {
		t.Errorf("PolSP saturates at %.3f, expected > 0.75", polsp)
	}
	if polsp <= valiant {
		t.Errorf("PolSP (%.3f) must beat Valiant (%.3f) on uniform", polsp, valiant)
	}
}

func TestSurePathSurvivesFaultsAtSaturation(t *testing.T) {
	// The headline claim: OmniSP/PolSP keep working under heavy random
	// faults at full offered load, where ladder mechanisms are not even
	// defined. Uses small buffers to stress flow control.
	h := topo.MustHyperX(4, 4)
	seq := topo.RandomFaultSequence(h, 21)
	nw := topo.NewNetwork(h, topo.NewFaultSet(seq[:6]...)) // 12.5% of links
	if !nw.Graph().Connected() {
		t.Skip("fault draw disconnected the network")
	}
	pat := uniformOn(t, h, 4)
	for _, name := range []string{"OmniSP", "PolSP"} {
		res, err := Run(RunOptions{
			Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, name, nw),
			Pattern: pat, Load: 1.0, WarmupCycles: 1500, MeasureCycles: 2500, Seed: 11,
		})
		if err != nil {
			t.Fatalf("%s under faults: %v", name, err)
		}
		t.Logf("%s with 6 faults: accepted=%.3f escape=%.3f", name, res.AcceptedLoad, res.EscapeFraction)
		if res.AcceptedLoad < 0.3 {
			t.Errorf("%s accepted only %.3f under 6 faults", name, res.AcceptedLoad)
		}
		if res.EscapeFraction == 0 {
			t.Errorf("%s never used the escape subnetwork under faults", name)
		}
	}
}

func TestTinyBuffersNoDeadlock(t *testing.T) {
	// Aggressive stress: 1-packet buffers, full load, adversarial pattern,
	// faults. Any dependency cycle would deadlock here; the watchdog would
	// catch it.
	h := topo.MustHyperX(4, 4)
	seq := topo.RandomFaultSequence(h, 31)
	nw := topo.NewNetwork(h, topo.NewFaultSet(seq[:10]...))
	if !nw.Graph().Connected() {
		t.Skip("fault draw disconnected the network")
	}
	sv := traffic.Servers{H: h, Per: 4}
	pat, err := traffic.NewRegularPermutationToNeighbour(sv)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.InputBufPkts = 1
	cfg.OutputBufPkts = 1
	cfg.WatchdogCycles = 20000
	for _, name := range []string{"OmniSP", "PolSP"} {
		res, err := Run(RunOptions{
			Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, name, nw),
			Pattern: pat, Load: 1.0, WarmupCycles: 1000, MeasureCycles: 3000,
			Seed: 13, Config: cfg,
		})
		if err != nil {
			t.Fatalf("%s deadlocked with tiny buffers: %v", name, err)
		}
		if res.AcceptedLoad <= 0 {
			t.Errorf("%s moved no traffic", name)
		}
	}
}

// TestBurstModeCompletes runs a burst to completion under two series
// buckets: 500 cycles, and one cycle, whose first bucket (cycle 0, before
// any packet can cross a link) is a gap. Each series point's Cycle is the
// end of its bucket and its Accepted the bucket's whole-packet phit count
// over bucket x servers; a gap reads 0, the series ends at the bucket of
// the last delivery (the completion time), and the counts add up to the
// delivered phits.
func TestBurstModeCompletes(t *testing.T) {
	h := topo.MustHyperX(3, 3)
	nw := topo.NewNetwork(h, nil)
	sv := traffic.Servers{H: h, Per: 3}
	pat, err := traffic.NewRandomServerPermutation(sv.Count(), 5)
	if err != nil {
		t.Fatal(err)
	}
	const phitsPerPkt = 16
	for _, bucket := range []int64{500, 1} {
		res, err := Run(RunOptions{
			Net: nw, ServersPerSwitch: 3, Mechanism: buildMech(t, "PolSP", nw),
			Pattern: pat, BurstPackets: 20, SeriesBucket: bucket, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		wantPkts := int64(20 * sv.Count())
		if res.DeliveredPackets != wantPkts {
			t.Errorf("bucket %d: delivered %d, want %d", bucket, res.DeliveredPackets, wantPkts)
		}
		if res.CompletionTime <= 0 || res.CompletionTime > 100000 {
			t.Errorf("bucket %d: completion time %d", bucket, res.CompletionTime)
		}
		if n := int64(len(res.Series)); n == 0 || n-1 != res.CompletionTime/bucket {
			t.Fatalf("bucket %d: %d series points, want the %d up to the bucket of the last delivery at cycle %d",
				bucket, n, res.CompletionTime/bucket+1, res.CompletionTime)
		}
		if res.Series[len(res.Series)-1].Accepted == 0 {
			t.Errorf("bucket %d: the series ends in an empty bucket", bucket)
		}
		if bucket == 1 && res.Series[0] != (metrics.SeriesPoint{Cycle: 1, Accepted: 0}) {
			t.Errorf("bucket 1: cycle 0 delivered nothing, its point is %+v", res.Series[0])
		}
		// Every point is a whole number of packets over bucket x servers,
		// and they add up to the delivered phits.
		var phits int64
		for i, p := range res.Series {
			pkts := int64(math.Round(p.Accepted * float64(bucket*int64(sv.Count())) / phitsPerPkt))
			want := metrics.SeriesPoint{Cycle: int64(i+1) * bucket, Accepted: float64(pkts*phitsPerPkt) / float64(bucket*int64(sv.Count()))}
			if p != want {
				t.Fatalf("bucket %d: point %d is %+v, want %+v", bucket, i, p, want)
			}
			phits += pkts * phitsPerPkt
		}
		if phits != wantPkts*phitsPerPkt {
			t.Errorf("bucket %d: series adds up to %d phits, want %d", bucket, phits, wantPkts*phitsPerPkt)
		}
	}
}

func TestBurstExceedingQueueGrowsQueue(t *testing.T) {
	// Burst mode sizes injection queues to the burst, regardless of
	// InjQueuePkts.
	h := topo.MustHyperX(3, 3)
	nw := topo.NewNetwork(h, nil)
	pat, _ := traffic.NewRandomServerPermutation(27, 5)
	cfg := DefaultConfig()
	cfg.InjQueuePkts = 2
	res, err := Run(RunOptions{
		Net: nw, ServersPerSwitch: 3, Mechanism: buildMech(t, "Minimal", nw),
		Pattern: pat, BurstPackets: 10, Seed: 19, Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPackets != 270 {
		t.Errorf("delivered %d, want 270", res.DeliveredPackets)
	}
}

func TestWatchdogFiresOnStuckRouting(t *testing.T) {
	// A K2 network whose only link is cut: every cross packet is stuck with
	// DOR (which ignores connectivity), so after the injection buffers
	// fill, nothing moves and the watchdog must fire rather than hang.
	h := topo.MustHyperX(2)
	nw := topo.NewNetwork(h, topo.NewFaultSet(topo.Edge{U: 0, V: 1}))
	alg, err := routing.NewDOR(nw)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := routing.NewLadder(alg, 2, 1, "DOR")
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewPermutation("cross", []int32{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 2000
	_, err = Run(RunOptions{
		Net: nw, ServersPerSwitch: 1, Mechanism: mech, Pattern: pat,
		Load: 0.5, WarmupCycles: 1000, MeasureCycles: 100000, Seed: 23, Config: cfg,
	})
	if err == nil {
		t.Fatal("expected the watchdog to fire for DOR with a cut route")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("error %v is not ErrDeadlock", err)
	}
}

func TestJainDropsUnderAsymmetricStarvation(t *testing.T) {
	// A permutation whose pairs have very unequal path quality under heavy
	// faults yields Jain visibly below 1 (the effect behind the paper's
	// Jain panels). Compare low-load (fair) vs saturated (unfair).
	h := topo.MustHyperX(4, 4)
	star, err := topo.CrossFaults(h, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw := topo.NewNetwork(h, topo.NewFaultSet(star...))
	if !nw.Graph().Connected() {
		t.Fatal("cross disconnected test network")
	}
	sv := traffic.Servers{H: h, Per: 4}
	pat, err := traffic.NewRandomServerPermutation(sv.Count(), 9)
	if err != nil {
		t.Fatal(err)
	}
	run := func(load float64) *Result {
		res, err := Run(RunOptions{
			Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, "PolSP", nw),
			Pattern: pat, Load: load, WarmupCycles: 2000, MeasureCycles: 6000, Seed: 29,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	low, high := run(0.1), run(1.0)
	t.Logf("jain: low=%.4f high=%.4f", low.JainIndex, high.JainIndex)
	// Bernoulli generation over a finite window carries sampling noise of
	// roughly 1/(1 + 1/packetsPerServer), so "near 1" means > 0.95 here.
	if low.JainIndex < 0.95 {
		t.Errorf("low-load Jain %.4f, want near 1", low.JainIndex)
	}
	if high.JainIndex > low.JainIndex {
		t.Errorf("saturated Jain %.4f above low-load %.4f", high.JainIndex, low.JainIndex)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	pat := uniformOn(t, h, 4)
	mech := buildMech(t, "Minimal", nw)
	lat := func(load float64) float64 {
		res, err := Run(RunOptions{
			Net: nw, ServersPerSwitch: 4, Mechanism: mech, Pattern: pat,
			Load: load, WarmupCycles: 1000, MeasureCycles: 2000, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgLatency
	}
	l2, l8 := lat(0.2), lat(0.8)
	t.Logf("latency: 0.2->%.1f 0.8->%.1f", l2, l8)
	if l8 <= l2 {
		t.Errorf("latency did not grow with load: %.1f vs %.1f", l2, l8)
	}
}

func TestZeroWatchdogDisablesDetection(t *testing.T) {
	// With watchdog disabled, a short doomed run must still terminate by
	// cycle budget (packets simply stay undelivered).
	h := topo.MustHyperX(3, 3)
	src := h.ID([]int{0, 0})
	mid := h.ID([]int{2, 0})
	nw := topo.NewNetwork(h, topo.NewFaultSet(topo.NewEdge(src, mid)))
	alg, _ := routing.NewDOR(nw)
	mech, _ := routing.NewLadder(alg, 4, 1, "DOR")
	dst := make([]int32, 9)
	for i := range dst {
		dst[i] = int32(i)
	}
	dst[src], dst[mid] = mid, src
	pat, _ := traffic.NewPermutation("cut-pair", dst)
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 0
	res, err := Run(RunOptions{
		Net: nw, ServersPerSwitch: 1, Mechanism: mech, Pattern: pat,
		Load: 0.2, WarmupCycles: 100, MeasureCycles: 2000, Seed: 37, Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 2100 {
		t.Errorf("ran %d cycles, want 2100", res.Cycles)
	}
}
