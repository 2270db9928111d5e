package core

import (
	"testing"

	"repro/internal/escape"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topo"
)

func mustSP(t *testing.T, nw *topo.Network, base BaseRoutes, vcs int, opts ...Option) *SurePath {
	t.Helper()
	sp, err := New(nw, base, vcs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestConstruction(t *testing.T) {
	nw := topo.NewNetwork(topo.MustHyperX(4, 4), nil)
	if _, err := New(nw, OmniRoutes, 1); err == nil {
		t.Error("1 VC accepted")
	}
	if _, err := New(nw, BaseRoutes(9), 4); err == nil {
		t.Error("unknown base accepted")
	}
	sp := mustSP(t, nw, OmniRoutes, 4)
	if sp.Name() != "OmniSP" || sp.VCs() != 4 || sp.EscapeVC() != 3 {
		t.Errorf("OmniSP config wrong: %s %d %d", sp.Name(), sp.VCs(), sp.EscapeVC())
	}
	sp2 := mustSP(t, nw, PolarizedRoutes, 6, WithRoot(5))
	if sp2.Name() != "PolSP" || sp2.Root() != 5 || sp2.Escape().Root() != 5 {
		t.Errorf("PolSP config wrong")
	}
	alg, _ := routing.NewMinimal(nw)
	sp3, err := NewWithAlgorithm(nw, alg, 3)
	if err != nil || sp3.Name() != "MinimalSP" {
		t.Errorf("NewWithAlgorithm: %v %q", err, sp3.Name())
	}
	if _, err := NewWithAlgorithm(nw, alg, 1); err == nil {
		t.Error("NewWithAlgorithm accepted 1 VC")
	}
}

func TestInjectIntoRoutingVC(t *testing.T) {
	nw := topo.NewNetwork(topo.MustHyperX(4, 4), nil)
	sp := mustSP(t, nw, PolarizedRoutes, 4)
	var st routing.PacketState
	vcs := sp.InjectVCs(&st, nil)
	if len(vcs) != 1 || vcs[0] != 0 {
		t.Errorf("InjectVCs = %v, want [0]", vcs)
	}
}

func TestCandidatesIncludeBothSubnetworks(t *testing.T) {
	nw := topo.NewNetwork(topo.MustHyperX(4, 4), nil)
	sp := mustSP(t, nw, OmniRoutes, 4)
	r := rng.New(1)
	var st routing.PacketState
	src := hx(nw).ID([]int{0, 0})
	dst := hx(nw).ID([]int{3, 3})
	sp.Init(&st, src, dst, r)
	cands := sp.Candidates(src, &st, 0, nil, nil)
	routingCands, escapeCands := 0, 0
	for _, c := range cands {
		if c.VC == sp.EscapeVC() {
			escapeCands++
		} else {
			routingCands++
			if c.VC != 0 {
				t.Errorf("hop-0 routing candidate on VC %d", c.VC)
			}
		}
	}
	if routingCands == 0 || escapeCands == 0 {
		t.Fatalf("routing=%d escape=%d candidates; both sets must be offered", routingCands, escapeCands)
	}
}

func TestEscapeCommitment(t *testing.T) {
	// Once a packet advances on the escape VC it must never be offered
	// routing candidates again.
	nw := topo.NewNetwork(topo.MustHyperX(4, 4), nil)
	sp := mustSP(t, nw, PolarizedRoutes, 4)
	r := rng.New(2)
	var st routing.PacketState
	src := hx(nw).ID([]int{1, 1})
	dst := hx(nw).ID([]int{3, 2})
	sp.Init(&st, src, dst, r)
	cands := sp.Candidates(src, &st, 0, nil, nil)
	var esc *Candidate
	for i := range cands {
		if cands[i].VC == sp.EscapeVC() {
			esc = &cands[i]
			break
		}
	}
	if esc == nil {
		t.Fatal("no escape candidate at source")
	}
	sp.Advance(src, esc.Port, esc.VC, &st)
	if !st.InEscape {
		t.Fatal("InEscape not set after escape hop")
	}
	cur := nw.H.PortNeighbor(src, esc.Port)
	cands = sp.Candidates(cur, &st, sp.EscapeVC(), nil, cands[:0])
	for _, c := range cands {
		if c.VC != sp.EscapeVC() {
			t.Fatalf("escaped packet offered routing VC %d", c.VC)
		}
	}
}

func TestRoutingVCLadderCapped(t *testing.T) {
	nw := topo.NewNetwork(topo.MustHyperX(4, 4), nil)
	sp := mustSP(t, nw, OmniRoutes, 4) // 3 routing VCs
	r := rng.New(3)
	var st routing.PacketState
	src := hx(nw).ID([]int{0, 0})
	dst := hx(nw).ID([]int{3, 3})
	sp.Init(&st, src, dst, r)
	st.Hops = 7 // beyond the CRout ladder
	cands := sp.Candidates(src, &st, 0, nil, nil)
	for _, c := range cands {
		if c.VC != sp.EscapeVC() && c.VC != 2 {
			t.Errorf("capped routing VC %d, want 2", c.VC)
		}
	}
}

// spWalk drives a packet with SurePath, always taking the lowest-penalty
// candidate (ties by first), and returns the visited switches.
func spWalk(sp *SurePath, nw *topo.Network, src, dst int32, r *rng.Rand, maxHops int) []int32 {
	var st routing.PacketState
	sp.Init(&st, src, dst, r)
	cur := src
	vc := 0
	path := []int32{cur}
	var buf []Candidate
	for hops := 0; cur != dst; hops++ {
		if hops > maxHops {
			return nil
		}
		buf = sp.Candidates(cur, &st, vc, nil, buf[:0])
		if len(buf) == 0 {
			return nil
		}
		best := buf[r.Intn(len(buf))]
		sp.Advance(cur, best.Port, best.VC, &st)
		vc = best.VC
		cur = nw.H.PortNeighbor(cur, best.Port)
		path = append(path, cur)
	}
	return path
}

func TestDeliveryHealthyAllPairs(t *testing.T) {
	nw := topo.NewNetwork(topo.MustHyperX(3, 3), nil)
	r := rng.New(4)
	for _, base := range []BaseRoutes{OmniRoutes, PolarizedRoutes} {
		sp := mustSP(t, nw, base, 4)
		for src := int32(0); src < 9; src++ {
			for dst := int32(0); dst < 9; dst++ {
				if spWalk(sp, nw, src, dst, r, 60) == nil {
					t.Errorf("%s failed %d->%d", sp.Name(), src, dst)
				}
			}
		}
	}
}

func TestDeliveryUnderHeavyFaults(t *testing.T) {
	// The paper's central claim: SurePath delivers while a path exists,
	// whatever the fault count. Walk all pairs under aggressive random
	// fault sets.
	h := topo.MustHyperX(4, 4, 4)
	seq := topo.RandomFaultSequence(h, 55)
	r := rng.New(5)
	for _, cut := range []int{50, 120, 200} {
		nw := topo.NewNetwork(h, topo.NewFaultSet(seq[:cut]...))
		if !nw.Graph().Connected() {
			t.Logf("cut %d disconnects; skipping", cut)
			continue
		}
		for _, base := range []BaseRoutes{OmniRoutes, PolarizedRoutes} {
			sp := mustSP(t, nw, base, 4)
			for trial := 0; trial < 300; trial++ {
				src := int32(r.Intn(64))
				dst := int32(r.Intn(64))
				if spWalk(sp, nw, src, dst, r, 3*64) == nil {
					t.Fatalf("%s stuck %d->%d with %d faults", sp.Name(), src, dst, cut)
				}
			}
		}
	}
}

func TestForcedHopsWhenOmniStuck(t *testing.T) {
	// Build a fault set that starves Omnidimensional: cut the last minimal
	// link of a packet with no deroutes left. SurePath must still offer
	// escape candidates (a forced hop).
	h := topo.MustHyperX(4, 4)
	src := h.ID([]int{0, 0})
	dst := h.ID([]int{3, 0})
	f := topo.NewFaultSet(topo.NewEdge(src, dst))
	nw := topo.NewNetwork(h, f)
	sp := mustSP(t, nw, OmniRoutes, 4)
	var st routing.PacketState
	sp.Init(&st, src, dst, rng.New(6))
	st.Deroutes = 2 // budget exhausted; direct link dead: Omni is stuck
	cands := sp.Candidates(src, &st, 0, nil, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates at all: forced hop impossible")
	}
	for _, c := range cands {
		if c.VC != sp.EscapeVC() {
			t.Errorf("expected only escape candidates, got routing VC %d", c.VC)
		}
	}
}

func TestEscapePenaltiesDisfavored(t *testing.T) {
	// Escape candidates must always carry a higher penalty than minimal
	// routing candidates so they are the last resort.
	nw := topo.NewNetwork(topo.MustHyperX(4, 4), nil)
	sp := mustSP(t, nw, PolarizedRoutes, 4)
	var st routing.PacketState
	sp.Init(&st, 0, 15, rng.New(7))
	minRouting, minEscape := int32(1<<30), int32(1<<30)
	for _, c := range sp.Candidates(0, &st, 0, nil, nil) {
		if c.VC == sp.EscapeVC() {
			if c.Penalty < minEscape {
				minEscape = c.Penalty
			}
		} else if c.Penalty < minRouting {
			minRouting = c.Penalty
		}
	}
	if minEscape <= minRouting {
		t.Errorf("escape penalty %d not above routing penalty %d", minEscape, minRouting)
	}
}

func TestRebuildKeepsRootAndDelivers(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	sp := mustSP(t, nw, PolarizedRoutes, 4, WithRoot(9))
	shape, err := topo.CrossFaults(h, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw2 := topo.NewNetwork(h, topo.NewFaultSet(shape...))
	if err := sp.Rebuild(nw2); err != nil {
		t.Fatal(err)
	}
	if sp.Root() != 9 || sp.Escape().Root() != 9 {
		t.Error("root changed across rebuild")
	}
	r := rng.New(8)
	for trial := 0; trial < 200; trial++ {
		src, dst := int32(r.Intn(16)), int32(r.Intn(16))
		if spWalk(sp, nw2, src, dst, r, 64) == nil {
			t.Fatalf("post-rebuild walk %d->%d failed", src, dst)
		}
	}
	// Rebuild on a disconnected network must fail.
	f := topo.NewFaultSet()
	for p := 0; p < h.SwitchRadix(); p++ {
		f.Add(0, h.PortNeighbor(0, p))
	}
	if err := sp.Rebuild(topo.NewNetwork(h, f)); err == nil {
		t.Error("rebuild accepted disconnected network")
	}
	// ... and must leave the mechanism on the tables it had: they are
	// rebuilt in place, so a refusal has to come before the first write.
	for trial := 0; trial < 200; trial++ {
		src, dst := int32(r.Intn(16)), int32(r.Intn(16))
		if spWalk(sp, nw2, src, dst, r, 64) == nil {
			t.Fatalf("walk %d->%d failed after a refused rebuild", src, dst)
		}
	}
}

// TestRebuildChainInPlace fails links one at a time under both SurePath
// configurations, each Rebuild reusing the tables and bitsets of the last:
// after every fault the escape channel dependency graph is still acyclic
// and every sampled pair is still delivered.
func TestRebuildChainInPlace(t *testing.T) {
	for _, base := range []BaseRoutes{PolarizedRoutes, OmniRoutes} {
		h := topo.MustHyperX(3, 5, 4)
		nw := topo.NewNetwork(h, topo.NewFaultSet())
		sp := mustSP(t, nw, base, 4, WithRoot(11))
		r := rng.New(21)
		failed := 0
		for _, e := range topo.RandomFaultSequence(h, 3) {
			if failed == 10 {
				break
			}
			if cut := nw.Graph().RemoveEdges([]topo.Edge{e}); !cut.Connected() {
				continue
			}
			nw.Faults.Add(e.U, e.V)
			failed++
			if err := sp.Rebuild(nw); err != nil {
				t.Fatal(err)
			}
			if ok, cycle := sp.Escape().CheckDeadlockFree(); !ok {
				t.Fatalf("%s, %d faults: escape CDG cycle through %v", sp.Name(), failed, cycle)
			}
			for trial := 0; trial < 100; trial++ {
				src, dst := int32(r.Intn(60)), int32(r.Intn(60))
				if spWalk(sp, nw, src, dst, r, 200) == nil {
					t.Fatalf("%s, %d faults: walk %d->%d failed", sp.Name(), failed, src, dst)
				}
			}
		}
	}
}

func TestPaperEscapeRuleOption(t *testing.T) {
	nw := topo.NewNetwork(topo.MustHyperX(4, 4), nil)
	sp := mustSP(t, nw, PolarizedRoutes, 4, WithEscapeRule(escape.RuleUDTable))
	if sp.Escape().RuleUsed() != escape.RuleUDTable {
		t.Fatal("escape rule option not honored")
	}
	// Delivery still works under the literal rule.
	r := rng.New(9)
	for trial := 0; trial < 100; trial++ {
		src, dst := int32(r.Intn(16)), int32(r.Intn(16))
		if spWalk(sp, nw, src, dst, r, 64) == nil {
			t.Fatalf("udtable walk %d->%d failed", src, dst)
		}
	}
}

func TestMinimumTwoVCs(t *testing.T) {
	// The paper claims SurePath works with just 2 VCs (1 routing + 1
	// escape).
	nw := topo.NewNetwork(topo.MustHyperX(3, 3, 3), nil)
	sp := mustSP(t, nw, PolarizedRoutes, 2)
	r := rng.New(10)
	for trial := 0; trial < 200; trial++ {
		src, dst := int32(r.Intn(27)), int32(r.Intn(27))
		if spWalk(sp, nw, src, dst, r, 100) == nil {
			t.Fatalf("2-VC walk %d->%d failed", src, dst)
		}
	}
}

// hx unwraps the test network's HyperX for coordinate helpers.
func hx(nw *topo.Network) *topo.HyperX { return nw.H.(*topo.HyperX) }
