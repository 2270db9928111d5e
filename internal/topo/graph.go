// Package topo provides the topology substrate of the simulator: generic
// immutable graphs with distance metrics, the HyperX (Hamming graph) family
// the paper studies, and the fault models of its evaluation (random link
// failures and the structured Row / Subplane / Cross / Subcube / Star
// shapes).
package topo

import (
	"fmt"
	"sort"
)

// Unreachable marks pairs with no path in distance tables.
const Unreachable = int32(1) << 30

// Edge is an undirected link between two switches, stored normalized with
// U < V so edges compare and hash consistently.
type Edge struct {
	U, V int32
}

// NewEdge returns the normalized edge between a and b.
func NewEdge(a, b int32) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{a, b}
}

// Graph is an immutable undirected graph in compressed sparse row form.
// Vertices are 0..N()-1. Build instances with NewGraph or the topology
// constructors; the zero value is an empty graph.
type Graph struct {
	off []int32 // len n+1, CSR offsets into val
	val []int32 // concatenated sorted neighbor lists
}

// NewGraph builds a graph on n vertices from the given undirected edges.
// Self-loops and duplicate edges are rejected.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("topo: negative vertex count %d", n)
	}
	deg := make([]int32, n)
	for _, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("topo: self-loop at vertex %d", e.U)
		}
		if e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("topo: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		deg[e.U]++
		deg[e.V]++
	}
	g := &Graph{
		off: make([]int32, n+1),
		val: make([]int32, 2*len(edges)),
	}
	for i := 0; i < n; i++ {
		g.off[i+1] = g.off[i] + deg[i]
	}
	fill := make([]int32, n)
	copy(fill, g.off[:n])
	for _, e := range edges {
		g.val[fill[e.U]] = e.V
		fill[e.U]++
		g.val[fill[e.V]] = e.U
		fill[e.V]++
	}
	for v := 0; v < n; v++ {
		nb := g.val[g.off[v]:g.off[v+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		for i := 1; i < len(nb); i++ {
			if nb[i] == nb[i-1] {
				return nil, fmt.Errorf("topo: duplicate edge (%d,%d)", v, nb[i])
			}
		}
	}
	return g, nil
}

// MustGraph is NewGraph that panics on invalid input; intended for
// constructors whose inputs are correct by construction.
func MustGraph(n int, edges []Edge) *Graph {
	g, err := NewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.val) / 2 }

// Neighbors returns the sorted neighbor list of v as a shared slice; callers
// must not modify it.
func (g *Graph) Neighbors(v int32) []int32 { return g.val[g.off[v]:g.off[v+1]] }

// Edges returns all undirected edges, normalized and sorted.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.M())
	for v := int32(0); v < int32(g.N()); v++ {
		for _, w := range g.Neighbors(v) {
			if v < w {
				edges = append(edges, Edge{v, w})
			}
		}
	}
	return edges
}

// adj views the graph as the adjacency relation BFS and Closure walk.
func (g *Graph) adj() Adj { return Adj{Off: g.off, Val: g.val} }

// BFS fills dist with hop distances from src, using Unreachable for vertices
// in other components. dist must have length N(). It returns the number of
// reached vertices (including src).
func (g *Graph) BFS(src int32, dist []int32) int { return g.adj().BFS(src, dist, nil) }

// Distances returns the full all-pairs distance table, row-major n*n, with
// Unreachable for disconnected pairs.
func (g *Graph) Distances() []int32 {
	n := g.N()
	d := make([]int32, n*n)
	adj, queue := g.adj(), make([]int32, n)
	for v := 0; v < n; v++ {
		adj.BFS(int32(v), d[v*n:(v+1)*n], queue)
	}
	return d
}

// Connected reports whether the graph has a single connected component
// (vacuously true for empty and single-vertex graphs).
func (g *Graph) Connected() bool {
	return g.N() <= 1 || g.adj().Connected()
}

// Diameter returns the largest finite distance between any pair. The second
// result is false when the graph is disconnected, in which case the diameter
// of the reachable pairs is returned.
func (g *Graph) Diameter() (int32, bool) {
	counts := g.distanceCounts()
	reached := int64(g.N())
	for _, c := range counts {
		reached += c
	}
	return int32(len(counts)), reached == int64(g.N())*int64(g.N())
}

// AvgDistance returns the mean distance over ordered distinct pairs. When
// inclSelf is true the n self-pairs of distance 0 are included in the mean,
// matching how the paper's Table 3 reports 2.625 for the 8x8x8 HyperX.
// Disconnected pairs are excluded from both numerator and denominator.
func (g *Graph) AvgDistance(inclSelf bool) float64 {
	var sum, pairs int64
	if inclSelf {
		pairs = int64(g.N())
	}
	for k, c := range g.distanceCounts() {
		sum += int64(k+1) * c
		pairs += c
	}
	if pairs == 0 {
		return 0
	}
	return float64(sum) / float64(pairs)
}

// distanceCounts returns how many ordered pairs lie at each distance 1, 2,
// ... up to the diameter of the reachable pairs: entry k-1 is the number of
// bits a Closure over g gains at level k. One closure to its fixpoint costs
// a word-OR per (edge, 64 vertices) per level, where a search from every
// vertex costs an edge visit per (edge, vertex).
func (g *Graph) distanceCounts() []int64 {
	var c Closure
	c.Reset(g.N())
	adj := g.adj()
	var counts []int64
	for reached := int64(g.N()); c.Step(adj, nil, 0, nil, 0); {
		now := c.reached()
		counts = append(counts, now-reached)
		reached = now
	}
	return counts
}

// RemoveEdges returns a copy of g with the given undirected edges deleted.
// Edges absent from g are ignored.
func (g *Graph) RemoveEdges(remove []Edge) *Graph {
	dead := make(map[Edge]struct{}, len(remove))
	for _, e := range remove {
		dead[NewEdge(e.U, e.V)] = struct{}{}
	}
	keep := make([]Edge, 0, g.M())
	for _, e := range g.Edges() {
		if _, gone := dead[e]; !gone {
			keep = append(keep, e)
		}
	}
	return MustGraph(g.N(), keep)
}

// ComponentSizes returns the sizes of the connected components in
// descending order.
func (g *Graph) ComponentSizes() []int {
	n := g.N()
	seen := make([]bool, n)
	adj, dist, queue := g.adj(), make([]int32, n), make([]int32, n)
	var sizes []int
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		adj.BFS(int32(v), dist, queue)
		size := 0
		for w, d := range dist {
			if d != Unreachable {
				seen[w] = true
				size++
			}
		}
		sizes = append(sizes, size)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}
