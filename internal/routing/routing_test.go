package routing

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/topo"
)

// walk drives a packet from src to dst following alg, choosing uniformly at
// random among candidates, and returns the path of switches visited. It
// fails the walk (returns nil) if the packet gets stuck or exceeds maxHops.
func walk(alg Algorithm, nw *topo.Network, src, dst int32, r *rng.Rand, maxHops int) []int32 {
	var st PacketState
	alg.Init(&st, src, dst, r)
	cur := src
	path := []int32{cur}
	var buf []PortCandidate
	for hops := 0; cur != dst; hops++ {
		if hops > maxHops {
			return nil
		}
		buf = alg.PortCandidates(cur, &st, buf[:0])
		if len(buf) == 0 {
			return nil
		}
		pc := buf[r.Intn(len(buf))]
		alg.Advance(cur, pc.Port, &st)
		cur = nw.H.PortNeighbor(cur, pc.Port)
		path = append(path, cur)
	}
	return path
}

func freshNet(t *testing.T, dims ...int) *topo.Network {
	t.Helper()
	return topo.NewNetwork(topo.MustHyperX(dims...), nil)
}

func TestBuildTablesDisconnected(t *testing.T) {
	h := topo.MustHyperX(2, 2)
	// Remove all links of switch 0.
	f := topo.NewFaultSet()
	for p := 0; p < h.SwitchRadix(); p++ {
		f.Add(0, h.PortNeighbor(0, p))
	}
	if err := (&Tables{}).Rebuild(topo.NewNetwork(h, f)); err == nil {
		t.Fatal("a table build accepted a disconnected network")
	}
}

func TestTablesMatchHamming(t *testing.T) {
	nw := freshNet(t, 4, 4, 4)
	tab := &Tables{}
	if err := tab.Rebuild(nw); err != nil {
		t.Fatal(err)
	}
	if tab.Diameter() != 3 {
		t.Errorf("diameter %d, want 3", tab.Diameter())
	}
	for a := int32(0); a < 64; a += 7 {
		for b := int32(0); b < 64; b += 5 {
			if tab.D(a, b) != hx(nw).HammingDistance(a, b) {
				t.Fatalf("D(%d,%d)=%d, want Hamming %d", a, b, tab.D(a, b), hx(nw).HammingDistance(a, b))
			}
		}
	}
}

func TestMinimalCandidatesShortenDistance(t *testing.T) {
	nw := freshNet(t, 4, 4)
	m, err := NewMinimal(nw)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	var st PacketState
	var buf []PortCandidate
	for trial := 0; trial < 100; trial++ {
		src := int32(r.Intn(16))
		dst := int32(r.Intn(16))
		m.Init(&st, src, dst, r)
		buf = m.PortCandidates(src, &st, buf[:0])
		if src == dst {
			if len(buf) != 0 {
				t.Fatal("candidates at destination")
			}
			continue
		}
		want := int(hx(nw).HammingDistance(src, dst)) // one aligned neighbor per unaligned dim
		if len(buf) != want {
			t.Fatalf("%d->%d: %d candidates, want %d", src, dst, len(buf), want)
		}
		for _, pc := range buf {
			next := nw.H.PortNeighbor(src, pc.Port)
			if m.Tables().D(next, dst) != m.Tables().D(src, dst)-1 {
				t.Fatalf("candidate does not shorten distance")
			}
			if pc.Penalty != PenaltyMinimal {
				t.Fatalf("minimal penalty = %d", pc.Penalty)
			}
		}
	}
}

func TestMinimalDeliversUnderFaults(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	seq := topo.RandomFaultSequence(h, 3)
	nw := topo.NewNetwork(h, topo.NewFaultSet(seq[:10]...))
	if !nw.Graph().Connected() {
		t.Skip("fault draw disconnected the tiny network")
	}
	m, err := NewMinimal(nw)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	for trial := 0; trial < 200; trial++ {
		src, dst := int32(r.Intn(16)), int32(r.Intn(16))
		if walk(m, nw, src, dst, r, m.MaxHops(nw)) == nil {
			t.Fatalf("minimal walk %d->%d failed under faults", src, dst)
		}
	}
}

func TestValiantVisitsIntermediate(t *testing.T) {
	nw := freshNet(t, 4, 4)
	v, err := NewValiant(nw)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	sawIntermediate := false
	for trial := 0; trial < 100; trial++ {
		src, dst := int32(r.Intn(16)), int32(r.Intn(16))
		var st PacketState
		v.Init(&st, src, dst, r)
		inter := st.Intermediate
		path := walk2(v, nw, &st, src, dst, r, v.MaxHops(nw))
		if path == nil {
			t.Fatalf("valiant walk %d->%d failed", src, dst)
		}
		found := inter == src
		for _, sw := range path {
			if sw == inter {
				found = true
			}
		}
		if !found {
			t.Fatalf("valiant route %v skipped intermediate %d", path, inter)
		}
		if inter != src && inter != dst {
			sawIntermediate = true
		}
	}
	if !sawIntermediate {
		t.Error("no trial drew a proper intermediate; suspicious RNG")
	}
}

// walk2 is walk with externally initialized state (to inspect Intermediate).
func walk2(alg Algorithm, nw *topo.Network, st *PacketState, src, dst int32, r *rng.Rand, maxHops int) []int32 {
	cur := src
	path := []int32{cur}
	var buf []PortCandidate
	for hops := 0; cur != dst || st.Phase == 0; hops++ {
		if cur == dst && st.Phase == 1 {
			break
		}
		if hops > maxHops {
			return nil
		}
		buf = alg.PortCandidates(cur, st, buf[:0])
		if len(buf) == 0 {
			if cur == dst {
				break // arrived exactly when phase flipped
			}
			return nil
		}
		pc := buf[r.Intn(len(buf))]
		alg.Advance(cur, pc.Port, st)
		cur = nw.H.PortNeighbor(cur, pc.Port)
		path = append(path, cur)
	}
	return path
}

func TestDORUniquePath(t *testing.T) {
	nw := freshNet(t, 4, 4)
	d, err := NewDOR(nw)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	src := hx(nw).ID([]int{0, 0})
	dst := hx(nw).ID([]int{2, 3})
	path := walk(d, nw, src, dst, r, 4)
	want := []int32{src, hx(nw).ID([]int{2, 0}), dst}
	if len(path) != len(want) {
		t.Fatalf("DOR path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("DOR path %v, want %v", path, want)
		}
	}
}

func TestDORBreaksWithSingleFault(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	src := h.ID([]int{0, 0})
	mid := h.ID([]int{2, 0})
	dst := h.ID([]int{2, 3})
	nw := topo.NewNetwork(h, topo.NewFaultSet(topo.NewEdge(src, mid)))
	d, err := NewDOR(nw)
	if err != nil {
		t.Fatal(err)
	}
	if walk(d, nw, src, dst, rng.New(5), 8) != nil {
		t.Fatal("DOR delivered despite its unique route being cut (paper says it cannot)")
	}
	// Minimal, rebuilt by BFS, still delivers: the paper's resilience
	// baseline.
	m, err := NewMinimal(nw)
	if err != nil {
		t.Fatal(err)
	}
	if walk(m, nw, src, dst, rng.New(5), m.MaxHops(nw)) == nil {
		t.Fatal("Minimal failed where it must succeed")
	}
}

func TestOmniStaysInAlignedSubgraph(t *testing.T) {
	// Source and destination in the same row: OmniWAR does not allow routes
	// outside that row (Section 4).
	nw := freshNet(t, 8, 8)
	o, err := NewOmni(nw)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	src := hx(nw).ID([]int{1, 5})
	dst := hx(nw).ID([]int{6, 5})
	for trial := 0; trial < 50; trial++ {
		path := walk(o, nw, src, dst, r, o.MaxHops(nw))
		if path == nil {
			t.Fatal("omni walk failed")
		}
		for _, sw := range path {
			if hx(nw).CoordAt(sw, 1) != 5 {
				t.Fatalf("omni route %v left the row", path)
			}
		}
	}
}

func TestOmniDerouteBudget(t *testing.T) {
	nw := freshNet(t, 4, 4, 4)
	o, err := NewOmni(nw)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		src, dst := int32(r.Intn(64)), int32(r.Intn(64))
		var st PacketState
		o.Init(&st, src, dst, r)
		cur := src
		var buf []PortCandidate
		for cur != dst {
			buf = o.PortCandidates(cur, &st, buf[:0])
			if len(buf) == 0 {
				t.Fatalf("omni stuck fault-free at %d (deroutes %d)", cur, st.Deroutes)
			}
			pc := buf[r.Intn(len(buf))]
			o.Advance(cur, pc.Port, &st)
			cur = nw.H.PortNeighbor(cur, pc.Port)
			if st.Deroutes > 3 {
				t.Fatalf("deroute budget exceeded: %d", st.Deroutes)
			}
			if st.Hops > int32(o.MaxHops(nw)) {
				t.Fatalf("route longer than MaxHops: %d", st.Hops)
			}
		}
	}
}

func TestOmniDeroutePenalties(t *testing.T) {
	nw := freshNet(t, 4, 4)
	o, _ := NewOmni(nw)
	var st PacketState
	o.Init(&st, 0, hx(nw).ID([]int{3, 0}), rng.New(8))
	buf := o.PortCandidates(0, &st, nil)
	minimal, deroutes := 0, 0
	for _, pc := range buf {
		if pc.Deroute {
			deroutes++
			if pc.Penalty != PenaltyDeroute {
				t.Errorf("deroute penalty %d", pc.Penalty)
			}
		} else {
			minimal++
			if pc.Penalty != PenaltyMinimal {
				t.Errorf("minimal penalty %d", pc.Penalty)
			}
		}
	}
	// One unaligned dim with k=4: 1 minimal + 2 deroutes.
	if minimal != 1 || deroutes != 2 {
		t.Errorf("minimal=%d deroutes=%d, want 1 and 2", minimal, deroutes)
	}
	// Exhaust the budget: deroutes disappear.
	st.Deroutes = 2
	buf = o.PortCandidates(0, &st, buf[:0])
	for _, pc := range buf {
		if pc.Deroute {
			t.Error("deroute offered after budget exhausted")
		}
	}
}

func TestPolarizedMuNeverDecreases(t *testing.T) {
	nw := freshNet(t, 4, 4, 4)
	p, err := NewPolarized(nw)
	if err != nil {
		t.Fatal(err)
	}
	tab := p.Tables()
	r := rng.New(9)
	check := func(seed uint64) bool {
		rr := rng.New(seed)
		src, dst := int32(rr.Intn(64)), int32(rr.Intn(64))
		var st PacketState
		p.Init(&st, src, dst, r)
		cur := src
		mu := tab.D(cur, src) - tab.D(cur, dst)
		var buf []PortCandidate
		for hops := 0; cur != dst; hops++ {
			if hops > p.MaxHops(nw)+1 {
				return false
			}
			buf = p.PortCandidates(cur, &st, buf[:0])
			if len(buf) == 0 {
				return false // must not get stuck fault-free
			}
			pc := buf[rr.Intn(len(buf))]
			p.Advance(cur, pc.Port, &st)
			cur = nw.H.PortNeighbor(cur, pc.Port)
			nmu := tab.D(cur, src) - tab.D(cur, dst)
			if nmu < mu {
				return false
			}
			mu = nmu
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPolarizedEscapesRowViaParallelLines(t *testing.T) {
	// Section 4: for neighbor pairs, Polarized can take 3-hop routes through
	// parallel rows, which Omnidimensional cannot. Verify such a candidate
	// (a hop leaving the src/dst row) exists at the source.
	nw := freshNet(t, 8, 8, 8)
	p, err := NewPolarized(nw)
	if err != nil {
		t.Fatal(err)
	}
	src := hx(nw).ID([]int{0, 0, 0})
	dst := hx(nw).ID([]int{1, 0, 0})
	var st PacketState
	p.Init(&st, src, dst, rng.New(10))
	buf := p.PortCandidates(src, &st, nil)
	offRow := 0
	for _, pc := range buf {
		if hx(nw).PortDim(pc.Port) != 0 {
			offRow++
			if pc.Penalty != PenaltyPolarized0 {
				t.Errorf("off-row candidate penalty %d, want %d", pc.Penalty, PenaltyPolarized0)
			}
		}
	}
	if offRow == 0 {
		t.Fatal("no off-row polarized candidates for a neighbor pair")
	}
	// Omnidimensional, in contrast, must stay in the row.
	o, _ := NewOmni(nw)
	var st2 PacketState
	o.Init(&st2, src, dst, rng.New(10))
	for _, pc := range o.PortCandidates(src, &st2, nil) {
		if hx(nw).PortDim(pc.Port) != 0 {
			t.Fatal("omni offered an off-row candidate")
		}
	}
}

func TestPolarizedDeliversUnderFaults(t *testing.T) {
	h := topo.MustHyperX(4, 4, 4)
	seq := topo.RandomFaultSequence(h, 11)
	nw := topo.NewNetwork(h, topo.NewFaultSet(seq[:40]...))
	if !nw.Graph().Connected() {
		t.Skip("fault draw disconnected the network")
	}
	p, err := NewPolarized(nw)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	delivered, stuck := 0, 0
	for trial := 0; trial < 300; trial++ {
		src, dst := int32(r.Intn(64)), int32(r.Intn(64))
		if walk(p, nw, src, dst, r, p.MaxHops(nw)+2) != nil {
			delivered++
		} else {
			stuck++
		}
	}
	// Polarized adapts to faults via its tables; the vast majority of walks
	// must succeed (occasional dead-ends are what the escape subnetwork is
	// for).
	if delivered < 280 {
		t.Fatalf("only %d/300 polarized walks delivered under faults (stuck %d)", delivered, stuck)
	}
}

func TestLadderVCProgression(t *testing.T) {
	nw := freshNet(t, 4, 4)
	alg, _ := NewMinimal(nw)
	lad, err := NewLadder(alg, 4, 2, "Minimal")
	if err != nil {
		t.Fatal(err)
	}
	if lad.VCs() != 4 || lad.Name() != "Minimal" {
		t.Fatalf("VCs=%d Name=%q", lad.VCs(), lad.Name())
	}
	inj := lad.InjectVCs(nil, nil)
	if len(inj) != 2 || inj[0] != 0 || inj[1] != 1 {
		t.Fatalf("step-2 InjectVCs = %v", inj)
	}
	var st PacketState
	r := rng.New(13)
	src := hx(nw).ID([]int{0, 0})
	dst := hx(nw).ID([]int{3, 3})
	lad.Init(&st, src, dst, r)
	cands := lad.Candidates(src, &st, 0, nil, nil)
	for _, c := range cands {
		if c.VC != 0 && c.VC != 1 {
			t.Errorf("hop-0 VC %d", c.VC)
		}
	}
	// After one hop the step-2 ladder moves to VCs {2,3}.
	lad.Advance(src, cands[0].Port, cands[0].VC, &st)
	mid := nw.H.PortNeighbor(src, cands[0].Port)
	cands = lad.Candidates(mid, &st, cands[0].VC, nil, cands[:0])
	if len(cands) == 0 {
		t.Fatal("no candidates after first hop")
	}
	for _, c := range cands {
		if c.VC != 2 && c.VC != 3 {
			t.Errorf("hop-1 VC %d", c.VC)
		}
	}
	// Hops beyond the ladder clamp to the last step instead of overflowing.
	st.Hops = 9
	cands = lad.Candidates(mid, &st, 0, nil, cands[:0])
	for _, c := range cands {
		if c.VC != 2 && c.VC != 3 {
			t.Errorf("clamped VC %d", c.VC)
		}
	}
}

func TestLadderValidation(t *testing.T) {
	nw := freshNet(t, 4, 4)
	alg, _ := NewMinimal(nw)
	if _, err := NewLadder(alg, 4, 3, ""); err == nil {
		t.Error("step 3 accepted")
	}
	if _, err := NewLadder(alg, 1, 2, ""); err == nil {
		t.Error("1 VC with step 2 accepted")
	}
	lad, err := NewLadder(alg, 2, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if lad.Name() != "Minimal" {
		t.Errorf("default name %q", lad.Name())
	}
}

func TestOmniWARVCSplit(t *testing.T) {
	nw := freshNet(t, 4, 4, 4)
	ow, err := NewOmniWAR(nw)
	if err != nil {
		t.Fatal(err)
	}
	if ow.VCs() != 6 {
		t.Fatalf("3D OmniWAR VCs = %d, want 6", ow.VCs())
	}
	r := rng.New(14)
	var st PacketState
	src := hx(nw).ID([]int{0, 0, 0})
	dst := hx(nw).ID([]int{1, 1, 1})
	ow.Init(&st, src, dst, r)
	cands := ow.Candidates(src, &st, 0, nil, nil)
	for _, c := range cands {
		next := nw.H.PortNeighbor(src, c.Port)
		dim := hx(nw).PortDim(c.Port)
		minimal := hx(nw).CoordAt(next, dim) == hx(nw).CoordAt(dst, dim)
		if minimal && c.VC >= 3 {
			t.Errorf("minimal hop assigned deroute VC %d", c.VC)
		}
		if !minimal && c.VC < 3 {
			t.Errorf("deroute assigned minimal VC %d", c.VC)
		}
	}
	// After two deroutes, deroute VC advances to n + 2.
	st.Deroutes = 2
	cands = ow.Candidates(src, &st, 0, nil, cands[:0])
	for _, c := range cands {
		next := nw.H.PortNeighbor(src, c.Port)
		dim := hx(nw).PortDim(c.Port)
		if hx(nw).CoordAt(next, dim) != hx(nw).CoordAt(dst, dim) && c.VC != 5 {
			t.Errorf("third deroute VC %d, want 5", c.VC)
		}
	}
}

func TestAlgorithmsDeliverEverywhere(t *testing.T) {
	// Exhaustive all-pairs delivery on a small 3x3 HyperX for every
	// algorithm, random candidate choice.
	nw := freshNet(t, 3, 3)
	algs := []Algorithm{}
	m, _ := NewMinimal(nw)
	v, _ := NewValiant(nw)
	d, _ := NewDOR(nw)
	o, _ := NewOmni(nw)
	p, _ := NewPolarized(nw)
	algs = append(algs, m, v, d, o, p)
	r := rng.New(15)
	for _, alg := range algs {
		for src := int32(0); src < 9; src++ {
			for dst := int32(0); dst < 9; dst++ {
				if walk(alg, nw, src, dst, r, alg.MaxHops(nw)+2) == nil {
					t.Errorf("%s failed to deliver %d->%d", alg.Name(), src, dst)
				}
			}
		}
	}
}

func TestRebuildAfterFaults(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	m, _ := NewMinimal(nw)
	p, _ := NewPolarized(nw)
	v, _ := NewValiant(nw)
	// Cut one link; distances through it must grow after Rebuild.
	a, b := h.ID([]int{0, 0}), h.ID([]int{1, 0})
	nw2 := topo.NewNetwork(h, topo.NewFaultSet(topo.NewEdge(a, b)))
	for _, alg := range []Algorithm{m, p, v} {
		if err := alg.Rebuild(nw2); err != nil {
			t.Fatalf("%s rebuild: %v", alg.Name(), err)
		}
	}
	if m.Tables().D(a, b) != 2 {
		t.Errorf("post-fault distance %d, want 2", m.Tables().D(a, b))
	}
	if p.Tables().D(a, b) != 2 {
		t.Errorf("polarized post-fault distance %d, want 2", p.Tables().D(a, b))
	}
	// Disconnected rebuild must fail.
	f := topo.NewFaultSet()
	for q := 0; q < h.SwitchRadix(); q++ {
		f.Add(0, h.PortNeighbor(0, q))
	}
	if err := m.Rebuild(topo.NewNetwork(h, f)); err == nil {
		t.Error("rebuild accepted disconnected network")
	}
}

// hx unwraps the test network's HyperX for coordinate helpers.
func hx(nw *topo.Network) *topo.HyperX { return nw.H.(*topo.HyperX) }

func TestAlgorithmNamesAndAccessors(t *testing.T) {
	nw := freshNet(t, 4, 4)
	m, _ := NewMinimal(nw)
	v, _ := NewValiant(nw)
	d, _ := NewDOR(nw)
	o, _ := NewOmni(nw)
	p, _ := NewPolarized(nw)
	dal, _ := NewDAL(nw)
	names := map[Algorithm]string{
		m: "Minimal", v: "Valiant", d: "DOR",
		o: "Omnidimensional", p: "Polarized", dal: "DAL",
	}
	for alg, want := range names {
		if alg.Name() != want {
			t.Errorf("Name() = %q, want %q", alg.Name(), want)
		}
	}
	if m.Tables().N() != 16 || p.Tables().N() != 16 {
		t.Error("Tables().N() wrong")
	}
}

func TestOmniWithBudgetZero(t *testing.T) {
	nw := freshNet(t, 4, 4)
	o, err := NewOmni(nw)
	if err != nil {
		t.Fatal(err)
	}
	o.maxDeroute = 0 // the deroute-budget gate, at its tightest
	var st PacketState
	o.Init(&st, 0, hx(nw).ID([]int{3, 0}), rng.New(1))
	for _, pc := range o.PortCandidates(0, &st, nil) {
		if pc.Deroute {
			t.Fatal("budget-0 omni offered a deroute")
		}
	}
	if o.MaxHops(nw) != 2 {
		t.Errorf("MaxHops %d, want 2", o.MaxHops(nw))
	}
}

func TestCoordinateAlgorithmRebuildRejectsOtherTopologies(t *testing.T) {
	nw := freshNet(t, 4, 4)
	torus := topo.NewNetwork(topo.MustTorus(4, 4), nil)
	o, _ := NewOmni(nw)
	d, _ := NewDOR(nw)
	dal, _ := NewDAL(nw)
	ow, _ := NewOmniWAR(nw)
	for _, alg := range []Algorithm{o, d, dal} {
		if err := alg.Rebuild(torus); err == nil {
			t.Errorf("%s rebuild accepted a torus", alg.Name())
		}
	}
	if err := ow.Rebuild(torus); err == nil {
		t.Error("OmniWAR rebuild accepted a torus")
	}
	// Rebuild on a valid HyperX succeeds and is usable.
	nw2 := freshNet(t, 4, 4)
	for _, alg := range []Algorithm{o, d, dal} {
		if err := alg.Rebuild(nw2); err != nil {
			t.Errorf("%s rebuild: %v", alg.Name(), err)
		}
	}
	if err := ow.Rebuild(nw2); err != nil {
		t.Errorf("OmniWAR rebuild: %v", err)
	}
}

func TestOmniWARMechanismSurface(t *testing.T) {
	nw := freshNet(t, 4, 4)
	ow, err := NewOmniWAR(nw)
	if err != nil {
		t.Fatal(err)
	}
	if ow.Name() != "OmniWAR" {
		t.Errorf("name %q", ow.Name())
	}
	var st PacketState
	if inj := ow.InjectVCs(&st, nil); len(inj) != 1 || inj[0] != 0 {
		t.Errorf("InjectVCs %v", inj)
	}
	r := rng.New(2)
	src := hx(nw).ID([]int{0, 0})
	dst := hx(nw).ID([]int{2, 2})
	ow.Init(&st, src, dst, r)
	cands := ow.Candidates(src, &st, 0, nil, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	ow.Advance(src, cands[0].Port, cands[0].VC, &st)
	if st.Hops != 1 {
		t.Errorf("hops %d after advance", st.Hops)
	}
	// Ladder.Rebuild delegates to the algorithm.
	alg, _ := NewMinimal(nw)
	lad, _ := NewLadder(alg, 4, 1, "")
	if err := lad.Rebuild(freshNet(t, 4, 4)); err != nil {
		t.Errorf("ladder rebuild: %v", err)
	}
}
