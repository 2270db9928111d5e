package topo

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// Complete returns the complete graph K_k.
func Complete(k int) *Graph {
	edges := make([]Edge, 0, k*(k-1)/2)
	for i := int32(0); i < int32(k); i++ {
		for j := i + 1; j < int32(k); j++ {
			edges = append(edges, Edge{i, j})
		}
	}
	return MustGraph(k, edges)
}

func TestNewGraphRejectsBadEdges(t *testing.T) {
	if _, err := NewGraph(3, []Edge{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewGraph(3, []Edge{{0, 3}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := NewGraph(3, []Edge{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate edge accepted")
	}
	if _, err := NewGraph(-1, nil); err == nil {
		t.Error("negative vertex count accepted")
	}
}

func TestCompleteGraph(t *testing.T) {
	for k := 2; k <= 8; k++ {
		g := Complete(k)
		if g.N() != k {
			t.Fatalf("K%d has %d vertices", k, g.N())
		}
		if g.M() != k*(k-1)/2 {
			t.Fatalf("K%d has %d edges, want %d", k, g.M(), k*(k-1)/2)
		}
		diam, conn := g.Diameter()
		if diam != 1 || !conn {
			t.Fatalf("K%d diameter=%d connected=%v", k, diam, conn)
		}
	}
}

func TestBFSPath(t *testing.T) {
	// Path graph 0-1-2-3-4.
	g := MustGraph(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	dist := make([]int32, 5)
	g.BFS(0, dist)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	diam, conn := g.Diameter()
	if diam != 4 || !conn {
		t.Errorf("path diameter=%d connected=%v", diam, conn)
	}
}

func TestDisconnected(t *testing.T) {
	g := MustGraph(4, []Edge{{0, 1}, {2, 3}})
	if g.Connected() {
		t.Error("two components reported connected")
	}
	dist := make([]int32, 4)
	if got := g.BFS(0, dist); got != 2 {
		t.Errorf("BFS reached %d vertices, want 2", got)
	}
	if dist[2] != Unreachable {
		t.Errorf("dist to other component = %d, want Unreachable", dist[2])
	}
	sizes := g.ComponentSizes()
	if len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 2 {
		t.Errorf("component sizes = %v", sizes)
	}
}

func TestRemoveEdges(t *testing.T) {
	g := Complete(4)
	g2 := g.RemoveEdges([]Edge{{0, 1}, {1, 0}, {2, 3}})
	if g2.M() != 4 {
		t.Fatalf("after removal M=%d, want 4", g2.M())
	}
	if slices.Contains(g2.Neighbors(0), 1) || slices.Contains(g2.Neighbors(2), 3) {
		t.Error("removed edge still present")
	}
	if !slices.Contains(g2.Neighbors(0), 2) {
		t.Error("surviving edge missing")
	}
	// Original untouched.
	if g.M() != 6 {
		t.Error("RemoveEdges mutated the receiver")
	}
}

func TestAvgDistanceComplete(t *testing.T) {
	g := Complete(5)
	if got := g.AvgDistance(false); got != 1.0 {
		t.Errorf("K5 avg distance excl self = %v, want 1", got)
	}
	// Including self: 20 pairs at 1, 5 at 0 => 20/25.
	if got := g.AvgDistance(true); got != 0.8 {
		t.Errorf("K5 avg distance incl self = %v, want 0.8", got)
	}
}

// refDiameter is Diameter as one search per source: the definition the
// closure-level count is held to.
func refDiameter(g *Graph) (int32, bool) {
	var diam int32
	connected := true
	dist := make([]int32, g.N())
	for v := 0; v < g.N(); v++ {
		if g.BFS(int32(v), dist) != g.N() {
			connected = false
		}
		for _, d := range dist {
			if d != Unreachable && d > diam {
				diam = d
			}
		}
	}
	return diam, connected
}

// refAvgDistance is AvgDistance as one search per source.
func refAvgDistance(g *Graph, inclSelf bool) float64 {
	n := g.N()
	var sum, pairs int64
	dist := make([]int32, n)
	for v := 0; v < n; v++ {
		g.BFS(int32(v), dist)
		for w, d := range dist {
			if d == Unreachable || (w == v && !inclSelf) {
				continue
			}
			sum += int64(d)
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(sum) / float64(pairs)
}

// TestDiameterAndAvgDistanceMatchBFS: the closure-level counts give exactly
// the per-source searches' diameter, connectivity and mean distance (bit
// for bit, both self-pair conventions) on HyperX, Torus and Dragonfly
// graphs under growing random fault prefixes — up to every link failed, so
// disconnected graphs are most of the heavy end — and on the empty and
// one-vertex graphs.
func TestDiameterAndAvgDistanceMatchBFS(t *testing.T) {
	graphs := []*Graph{MustGraph(0, nil), MustGraph(1, nil), MustGraph(2, nil)}
	for i, sw := range []Switched{MustHyperX(4, 4, 4), MustHyperX(16, 16), MustHyperX(5, 3), MustTorus(4, 5), MustTorus(8, 8), MustDragonfly(4, 2)} {
		seq := RandomFaultSequence(sw, uint64(i)+1)
		for _, frac := range []float64{0, 0.05, 0.3, 0.6, 0.8, 0.95, 1} {
			graphs = append(graphs, NewNetwork(sw, NewFaultSet(seq[:int(frac*float64(len(seq)))]...)).Graph())
		}
	}
	disconnected := 0
	for _, g := range graphs {
		gotD, gotC := g.Diameter()
		wantD, wantC := refDiameter(g)
		if gotD != wantD || gotC != wantC {
			t.Errorf("%d vertices, %d edges: Diameter() = %d, %v; BFS says %d, %v", g.N(), g.M(), gotD, gotC, wantD, wantC)
		}
		if !wantC {
			disconnected++
		}
		for _, self := range []bool{false, true} {
			if got, want := g.AvgDistance(self), refAvgDistance(g, self); got != want {
				t.Errorf("%d vertices, %d edges: AvgDistance(%v) = %v, BFS says %v", g.N(), g.M(), self, got, want)
			}
		}
	}
	if disconnected < 10 {
		t.Fatalf("only %d disconnected graphs checked", disconnected)
	}
}

// BenchmarkGraphDiameter is what a fault figure's graph work pays per fault
// count (Fig 1 per cut, Fig 6's rows): the diameter of the 8x8x8 HyperX
// with the first n links of a random fault sequence removed.
func BenchmarkGraphDiameter(b *testing.B) {
	h := MustHyperX(8, 8, 8)
	seq := RandomFaultSequence(h, 1)
	for _, n := range []int{0, 1000} {
		b.Run(fmt.Sprintf("faults=%d", n), func(b *testing.B) {
			g := NewNetwork(h, NewFaultSet(seq[:n]...)).Graph()
			b.ReportAllocs()
			for b.Loop() {
				g.Diameter()
			}
		})
	}
}

func TestDistancesSymmetric(t *testing.T) {
	h := MustHyperX(4, 4)
	g := h.Graph()
	n := g.N()
	d := g.Distances()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if d[u*n+v] != d[v*n+u] {
				t.Fatalf("distance not symmetric at (%d,%d)", u, v)
			}
		}
	}
}

// Property: in any connected graph built from a random spanning structure,
// BFS distances satisfy the triangle inequality over edges: |d(u)-d(v)| <= 1
// for adjacent u,v.
func TestBFSLipschitzProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(30)
		// Random connected graph: spanning tree + extra random edges.
		var edges []Edge
		for v := 1; v < n; v++ {
			edges = append(edges, NewEdge(int32(v), int32(r.Intn(v))))
		}
		seen := make(map[Edge]bool)
		for _, e := range edges {
			seen[e] = true
		}
		extra := r.Intn(2 * n)
		for i := 0; i < extra; i++ {
			a, b := int32(r.Intn(n)), int32(r.Intn(n))
			if a == b {
				continue
			}
			e := NewEdge(a, b)
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		g := MustGraph(n, edges)
		dist := make([]int32, n)
		src := int32(r.Intn(n))
		g.BFS(src, dist)
		for v := int32(0); v < int32(n); v++ {
			for _, w := range g.Neighbors(v) {
				diff := dist[v] - dist[w]
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
