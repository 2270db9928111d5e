package escape

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topo"
)

// oracleTables is the one-target-at-a-time builder the bit-parallel closure
// replaced, kept as the reference the new tables must equal entry for
// entry: per target a reverse BFS over Down links (down) or descent edges
// (ddr), then a dynamic program over increasing levels folding in the Up
// prefixes (ud, uddr). All three results are row-major [t*n+x].
func oracleTables(g *topo.Graph, root int32, rule Rule) (level, ud, ddr, uddr []int32) {
	n := g.N()
	level = make([]int32, n)
	g.BFS(root, level)
	order := make([]int32, 0, n)
	for l := int32(0); len(order) < n; l++ {
		for v := int32(0); v < int32(n); v++ {
			if level[v] == l {
				order = append(order, v)
			}
		}
	}
	descent := func(x, y int32) bool {
		if level[y] != level[x] {
			return level[y] == level[x]+1
		}
		return rule != RuleTree && x < y
	}
	// reverseBFS fills row with the distances to t along the hops edge
	// accepts, Unreachable where there is none.
	reverseBFS := func(t int32, row []int32, edge func(from, to int32) bool) {
		for i := range row {
			row[i] = topo.Unreachable
		}
		row[t] = 0
		queue := []int32{t}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Neighbors(v) {
				if edge(w, v) && row[w] == topo.Unreachable {
					row[w] = row[v] + 1
					queue = append(queue, w)
				}
			}
		}
	}
	// withUpPrefix is out(x) = min(base(x), 1 + min out(y) over the Up
	// neighbors y of x), by increasing level so Up neighbors are final.
	withUpPrefix := func(base, out []int32) {
		for _, x := range order {
			best := base[x]
			for _, y := range g.Neighbors(x) {
				if level[y] == level[x]-1 && out[y]+1 < best {
					best = out[y] + 1
				}
			}
			out[x] = best
		}
	}
	ud, ddr, uddr = make([]int32, n*n), make([]int32, n*n), make([]int32, n*n)
	down := make([]int32, n)
	for t := int32(0); t < int32(n); t++ {
		lo, hi := int(t)*n, int(t)*n+n
		reverseBFS(t, down, func(from, to int32) bool { return level[from] == level[to]-1 })
		withUpPrefix(down, ud[lo:hi])
		reverseBFS(t, ddr[lo:hi], descent)
		withUpPrefix(ddr[lo:hi], uddr[lo:hi])
	}
	return level, ud, ddr, uddr
}

// randomConnectedFaults draws up to want random link failures, skipping
// any that would disconnect the network.
func randomConnectedFaults(t topo.Switched, want int, seed uint64) *topo.FaultSet {
	faults := topo.NewFaultSet()
	g := topo.GraphOf(t)
	for _, e := range topo.RandomFaultSequence(t, seed) {
		if faults.Len() == want {
			break
		}
		if cut := g.RemoveEdges([]topo.Edge{e}); cut.Connected() {
			g = cut
			faults.Add(e.U, e.V)
		}
	}
	return faults
}

// oracleSpecs are the topologies of the table-equality property: HyperX
// with switch counts on both sides of, and not multiples of, the 64-bit
// word (60, 65, 81), Torus and Dragonfly, and the paper's 8x8x8.
var oracleSpecs = []topo.Spec{
	{Kind: topo.KindHyperX, Dims: []int{2, 3}},
	{Kind: topo.KindHyperX, Dims: []int{4, 4}},
	{Kind: topo.KindHyperX, Dims: []int{3, 5, 4}},
	{Kind: topo.KindHyperX, Dims: []int{5, 13}},
	{Kind: topo.KindHyperX, Dims: []int{8, 8}},
	{Kind: topo.KindHyperX, Dims: []int{3, 3, 3, 3}},
	{Kind: topo.KindHyperX, Dims: []int{8, 8, 8}},
	{Kind: topo.KindTorus, Dims: []int{4, 5}},
	{Kind: topo.KindTorus, Dims: []int{3, 3, 7}},
	{Kind: topo.KindTorus, Dims: []int{13, 5}},
	{Kind: topo.KindDragonfly, Dims: []int{4, 2}},
	{Kind: topo.KindDragonfly, Dims: []int{6, 3}},
}

// narrow is the table entry for an oracle distance: the same hop count, or
// topo.Far for Unreachable.
func narrow(d int32) topo.Dist {
	if d == topo.Unreachable {
		return topo.Far
	}
	return topo.Dist(d)
}

// TestTablesEqualPerTargetOracle is the contract of the bit-parallel
// rebuild: over random topologies, fault sets, rules and roots, the level
// array, every (ud, ddr, uddr) triple — Unreachable entries included — and
// the all-pairs distance table equal what the per-target searches compute,
// both through the int32 accessors and entry for entry in the narrow
// topo.Dist table the candidate scans read, where Unreachable is topo.Far.
// Equal tables are why neither change needed an engine-version bump.
func TestTablesEqualPerTargetOracle(t *testing.T) {
	r := rng.New(0x7ab1e5)
	for _, spec := range oracleSpecs {
		sw, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		n := sw.Switches()
		trials := 3
		if n > 200 {
			trials = 1 // the oracle, not the closure, is what takes the time
		}
		for trial := 0; trial < trials; trial++ {
			links := n * sw.SwitchRadix() / 2
			nw := topo.NewNetwork(sw, randomConnectedFaults(sw, r.Intn(links/4+1), r.Uint64()))
			g := nw.Graph()
			name := fmt.Sprintf("%s/%d faults", spec, nw.Faults.Len())

			tab := &routing.Tables{}
			if err := tab.Rebuild(nw); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dist := make([]int32, n)
			for a := int32(0); a < int32(n); a++ {
				g.BFS(a, dist)
				for b, want := range dist {
					if got := tab.D(a, int32(b)); got != want {
						t.Fatalf("%s: dist(%d,%d) = %d, BFS says %d", name, a, b, got, want)
					}
				}
			}

			root := int32(r.Intn(n))
			for _, rule := range []Rule{RulePhased, RuleUDTable, RuleTree} {
				s, err := BuildWithRule(nw, root, rule)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				level, ud, ddr, uddr := oracleTables(g, root, rule)
				if rule == RuleUDTable {
					for i := range ddr {
						ddr[i], uddr[i] = topo.Unreachable, topo.Unreachable
					}
				}
				for x := int32(0); x < int32(n); x++ {
					if s.Level(x) != level[x] {
						t.Fatalf("%s root %d: level(%d) = %d, want %d", name, root, x, s.Level(x), level[x])
					}
					for tg := int32(0); tg < int32(n); tg++ {
						i := int(tg)*n + int(x)
						got := [3]int32{s.UpDownDist(x, tg), s.DescentDist(x, tg), s.RouteLen(x, tg)}
						want := [3]int32{ud[i], ddr[i], uddr[i]}
						if got != want {
							t.Fatalf("%s root %d rule %s: (ud, ddr, uddr)(%d -> %d) = %v, oracle says %v",
								name, root, rule, x, tg, got, want)
						}
						for c, raw := range s.tab[i*s.cols : (i+1)*s.cols] {
							if raw != narrow(want[c]) {
								t.Fatalf("%s root %d rule %s: table column %d of (%d -> %d) holds %d, oracle says %d",
									name, root, rule, c, x, tg, raw, want[c])
							}
						}
					}
				}
			}
		}
	}
}

// TestRebuildInPlaceChain drives one subnetwork through a chain of
// in-place rebuilds — growing fault set, reused tables and bitsets — and
// after every link checks it against a subnetwork built from nothing and
// that the channel dependency graph is still acyclic.
func TestRebuildInPlaceChain(t *testing.T) {
	for _, rule := range []Rule{RulePhased, RuleTree} {
		h := topo.MustHyperX(3, 5, 4)
		nw := topo.NewNetwork(h, nil)
		s, err := BuildWithRule(nw, 7, rule)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range randomConnectedFaults(h, 12, 99).Edges() {
			nw.Faults.Add(e.U, e.V)
			if err := s.Rebuild(nw, nw.LiveNeighbors()); err != nil {
				t.Fatal(err)
			}
			fresh, err := BuildWithRule(nw, 7, rule)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range fresh.tab {
				if s.tab[i] != want {
					t.Fatalf("rule %s, %d faults: reused table differs from a fresh build at %d: %d != %d",
						rule, nw.Faults.Len(), i, s.tab[i], want)
				}
			}
			if ok, cycle := s.CheckDeadlockFree(); !ok {
				t.Fatalf("rule %s, %d faults: CDG cycle through %v after in-place rebuild", rule, nw.Faults.Len(), cycle)
			}
		}
	}
}

// TestFailedRebuildKeepsTables: a fault set that disconnects the network
// is refused with the same error by the escape builder and the distance
// tables, and neither has touched the tables it was serving from.
func TestFailedRebuildKeepsTables(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	s := build(t, nw, 5)
	tab := &routing.Tables{}
	if err := tab.Rebuild(nw); err != nil {
		t.Fatal(err)
	}
	before := append([]topo.Dist(nil), s.tab...)
	distBefore := tab.D(0, 15)

	cut := topo.NewNetwork(h, topo.NewFaultSet())
	for p := 0; p < h.SwitchRadix(); p++ {
		cut.Faults.Add(0, h.PortNeighbor(0, p))
	}
	want := fmt.Sprintf("network is disconnected (%d faults)", h.SwitchRadix())
	if err := s.Rebuild(cut, cut.LiveNeighbors()); err == nil || err.Error() != "escape: "+want {
		t.Errorf("escape rebuild on a disconnected network: %v", err)
	}
	if _, err := Build(cut, 5); err == nil || err.Error() != "escape: "+want {
		t.Errorf("escape build on a disconnected network: %v", err)
	}
	if err := tab.Rebuild(cut); err == nil || err.Error() != "routing: "+want {
		t.Errorf("tables rebuild on a disconnected network: %v", err)
	}
	if err := (&routing.Tables{}).Rebuild(cut); err == nil || err.Error() != "routing: "+want {
		t.Errorf("tables build on a disconnected network: %v", err)
	}
	for i, v := range before {
		if s.tab[i] != v {
			t.Fatalf("failed rebuild overwrote table entry %d", i)
		}
	}
	if tab.D(0, 15) != distBefore || tab.Live() == nil || tab.LiveNeighbor(0, 0) < 0 {
		t.Error("failed rebuild disturbed the distance tables")
	}
	var buf []routing.PortCandidate
	if len(s.Candidates(0, 15, PhaseUp, buf)) == 0 {
		t.Error("subnetwork unusable after a failed rebuild")
	}
}

// refCandidates is the escape candidate scan written from the definitions:
// per port a fault-set probe, the two levels, and the table through its
// int32 accessors. Candidates must return the same ports, in the same
// order, with the same penalties.
func refCandidates(s *Subnetwork, cur, dst int32, phase int8, buf []routing.PortCandidate) []routing.PortCandidate {
	if cur == dst {
		return buf
	}
	nw := s.nw
	lc := s.Level(cur)
	for p := 0; p < nw.H.SwitchRadix(); p++ {
		if !nw.PortAlive(cur, p) {
			continue
		}
		next := nw.H.PortNeighbor(cur, p)
		ln := s.Level(next)
		if s.rule == RuleUDTable {
			delta := s.UpDownDist(cur, dst) - s.UpDownDist(next, dst)
			if delta <= 0 {
				continue
			}
			penalty := shortcutPenalty(delta)
			if ln < lc {
				penalty = routing.PenaltyEscapeUp
			} else if ln > lc {
				penalty = routing.PenaltyEscapeDown
			}
			buf = append(buf, routing.PortCandidate{Port: p, Penalty: penalty})
			continue
		}
		if phase == PhaseUp && ln == lc-1 && s.RouteLen(next, dst) < s.RouteLen(cur, dst) {
			buf = append(buf, routing.PortCandidate{Port: p, Penalty: routing.PenaltyEscapeUp})
			continue
		}
		if !s.descentEdge(cur, next) {
			continue
		}
		ddrN := s.DescentDist(next, dst)
		if ddrN >= topo.Unreachable {
			continue
		}
		if phase == PhaseDown && ddrN >= s.DescentDist(cur, dst) {
			continue
		}
		if ln > lc {
			buf = append(buf, routing.PortCandidate{Port: p, Penalty: routing.PenaltyEscapeDown})
		} else {
			buf = append(buf, routing.PortCandidate{Port: p, Penalty: shortcutPenalty(s.UpDownDist(cur, dst) - s.UpDownDist(next, dst))})
		}
	}
	return buf
}

// TestCandidatesEqualReference: the class-byte scan over the narrow table
// equals the scan written from the definitions — ports, order, penalties,
// and the phase each offered hop leads to — for every rule and both
// phases, on HyperX with word-unaligned switch counts, Torus and
// Dragonfly, fault-free and under random connected fault sets, after a
// fresh build and after an in-place rebuild.
func TestCandidatesEqualReference(t *testing.T) {
	specs := []topo.Spec{
		{Kind: topo.KindHyperX, Dims: []int{8, 8, 8}},
		{Kind: topo.KindHyperX, Dims: []int{3, 5, 4}},
		{Kind: topo.KindHyperX, Dims: []int{5, 13}},
		{Kind: topo.KindTorus, Dims: []int{4, 5}},
		{Kind: topo.KindDragonfly, Dims: []int{4, 2}},
	}
	r := rng.New(0xe5ca9e)
	for _, spec := range specs {
		sw, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		n := sw.Switches()
		links := n * sw.SwitchRadix() / 2
		for _, rule := range []Rule{RulePhased, RuleUDTable, RuleTree} {
			nw := topo.NewNetwork(sw, topo.NewFaultSet())
			root := int32(r.Intn(n))
			s, err := BuildWithRule(nw, root, rule)
			if err != nil {
				t.Fatal(err)
			}
			for _, faults := range []int{0, 1 + r.Intn(links/8), 1 + r.Intn(links/4)} {
				if faults > 0 {
					nw.Faults = randomConnectedFaults(sw, faults, r.Uint64())
					if err := s.Rebuild(nw, nw.LiveNeighbors()); err != nil {
						t.Fatal(err)
					}
				}
				name := fmt.Sprintf("%s/%d faults, root %d, rule %s", spec, nw.Faults.Len(), root, rule)
				var got, want []routing.PortCandidate
				for i := 0; i < 20000; i++ {
					cur, dst, phase := int32(r.Intn(n)), int32(r.Intn(n)), int8(r.Intn(2))
					got = s.Candidates(cur, dst, phase, got[:0])
					want = refCandidates(s, cur, dst, phase, want[:0])
					if len(got) != len(want) {
						t.Fatalf("%s: %d -> %d, phase %d: candidates %v, reference says %v", name, cur, dst, phase, got, want)
					}
					for j, c := range got {
						if c != want[j] {
							t.Fatalf("%s: %d -> %d, phase %d: candidates %v, reference says %v", name, cur, dst, phase, got, want)
						}
						next := phase
						if rule != RuleUDTable {
							next = PhaseDown
							if s.Level(sw.PortNeighbor(cur, c.Port)) == s.Level(cur)-1 {
								next = PhaseUp
							}
						}
						if s.NextPhase(cur, c.Port, phase) != next {
							t.Fatalf("%s: hop %d port %d leads to phase %d, levels say %d", name, cur, c.Port, s.NextPhase(cur, c.Port, phase), next)
						}
					}
				}
			}
		}
	}
}

// TestOversizedNetworkRefusedBeforeAnyWrite: topo.Dist cannot hold the
// distances of more than topo.MaxTableVertices switches, and a 256x256
// torus — cheap to describe, 65536 switches — is one too many. Both table
// builders say so before they allocate or overwrite anything: the tables
// that were serving a small network still do.
func TestOversizedNetworkRefusedBeforeAnyWrite(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	small := topo.NewNetwork(h, nil)
	s := build(t, small, 5)
	tab := &routing.Tables{}
	if err := tab.Rebuild(small); err != nil {
		t.Fatal(err)
	}
	before := append([]topo.Dist(nil), s.tab...)

	big := topo.NewNetwork(topo.MustTorus(256, 256), nil)
	if n := big.H.Switches(); n != topo.MaxTableVertices+1 {
		t.Fatalf("the torus has %d switches, want one more than %d", n, topo.MaxTableVertices)
	}
	want := fmt.Sprintf("%d switches exceed the %d a distance table covers", topo.MaxTableVertices+1, topo.MaxTableVertices)
	if err := tab.Rebuild(big); err == nil || err.Error() != "routing: "+want {
		t.Errorf("tables rebuild on an oversized network: %v", err)
	}
	if err := (&routing.Tables{}).Rebuild(big); err == nil || err.Error() != "routing: "+want {
		t.Errorf("tables build on an oversized network: %v", err)
	}
	if err := s.Rebuild(big, big.LiveNeighbors()); err == nil || err.Error() != "escape: "+want {
		t.Errorf("escape rebuild on an oversized network: %v", err)
	}
	if tab.N() != h.Switches() || tab.D(0, 15) != 2 || tab.LiveNeighbor(0, 0) < 0 {
		t.Error("refused rebuild disturbed the distance tables")
	}
	for i, v := range before {
		if s.tab[i] != v {
			t.Fatalf("refused rebuild overwrote table entry %d", i)
		}
	}
	if len(s.Candidates(0, 15, PhaseUp, nil)) == 0 {
		t.Error("subnetwork unusable after a refused rebuild")
	}
}
