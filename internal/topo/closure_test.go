package topo

import (
	"testing"

	"repro/internal/rng"
)

// TestDistancesEqualPerSourceBFS checks the bit-parallel all-pairs table
// against one search per source on random sparse graphs — disconnected
// ones included, so Far entries must sit exactly where BFS says
// Unreachable — with vertex counts on both sides of the 64-bit word and a
// Closure reused throughout.
func TestDistancesEqualPerSourceBFS(t *testing.T) {
	r := rng.New(0xd157)
	var reach Closure
	for _, n := range []int{1, 2, 5, 63, 64, 65, 130, 200} {
		for trial := 0; trial < 4; trial++ {
			seen := make(map[Edge]bool)
			var edges []Edge
			for i := r.Intn(2*n + 1); i > 0; i-- {
				a, b := int32(r.Intn(n)), int32(r.Intn(n))
				if e := NewEdge(a, b); a != b && !seen[e] {
					seen[e] = true
					edges = append(edges, e)
				}
			}
			g := MustGraph(n, edges)
			got := make([]Dist, n*n)
			reach.Distances(g.adj(), got)
			want := make([]int32, n)
			for v := 0; v < n; v++ {
				g.BFS(int32(v), want)
				for w, d := range want {
					if got[v*n+w].Hops() != d {
						t.Fatalf("n=%d, %d edges: d(%d,%d) = %d, BFS says %d", n, len(edges), v, w, got[v*n+w], d)
					}
				}
			}
		}
	}
}

// TestLiveNeighborsMatchPortAlive: the flattened table is PortNeighbor
// where PortAlive holds and -1 elsewhere, on every topology family, and
// faults that name no link of the topology change nothing.
func TestLiveNeighborsMatchPortAlive(t *testing.T) {
	for _, sw := range []Switched{MustHyperX(3, 5, 4), MustTorus(4, 5), MustDragonfly(4, 2)} {
		faults := NewFaultSet(RandomFaultSequence(sw, 9)[:12]...)
		faults.Add(0, int32(sw.Switches())+3) // out of range
		faults.Add(-2, 1)
		nw := NewNetwork(sw, faults)
		lv := nw.LiveNeighbors()
		if lv.N != sw.Switches() || lv.Radix != sw.SwitchRadix() {
			t.Fatalf("%s: live topology is %dx%d", sw, lv.N, lv.Radix)
		}
		links := lv.Adj(Adj{}, nil)
		for x := int32(0); x < int32(lv.N); x++ {
			alive := 0
			for p := 0; p < lv.Radix; p++ {
				want := int32(-1)
				if nw.PortAlive(x, p) {
					want = sw.PortNeighbor(x, p)
					alive++
				}
				if got := lv.Nbr[int(x)*lv.Radix+p]; got != want {
					t.Fatalf("%s: Nbr(%d, port %d) = %d, want %d", sw, x, p, got, want)
				}
			}
			if got := int(links.Off[x+1] - links.Off[x]); got != alive {
				t.Fatalf("%s: switch %d has %d live links in Adj, %d alive ports", sw, x, got, alive)
			}
		}
	}
}
