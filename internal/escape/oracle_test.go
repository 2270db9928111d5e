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

// TestTablesEqualPerTargetOracle is the contract of the bit-parallel
// rebuild: over random topologies, fault sets, rules and roots, the level
// array, every (ud, ddr, uddr) triple — Unreachable entries included — and
// the all-pairs distance table equal what the per-target searches compute.
// Equal tables are why the change needed no engine-version bump.
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

			tab, err := routing.BuildTables(nw)
			if err != nil {
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
						if want := [3]int32{ud[i], ddr[i], uddr[i]}; got != want {
							t.Fatalf("%s root %d rule %s: (ud, ddr, uddr)(%d -> %d) = %v, oracle says %v",
								name, root, rule, x, tg, got, want)
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
	tab, err := routing.BuildTables(nw)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int32(nil), s.tab...)
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
	if _, err := routing.BuildTables(cut); err == nil || err.Error() != "routing: "+want {
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
