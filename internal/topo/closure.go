package topo

import "math/bits"

// Adj is a directed adjacency relation over the vertices 0..N()-1 in
// compressed sparse row form: the successors of x are
// Val[Off[x]:Off[x+1]]. A Graph is one (symmetric, sorted); the table
// builders derive others — Up links, Down links, descent edges — from a
// Live topology.
type Adj struct {
	Off []int32
	Val []int32
}

// N returns the number of vertices.
func (a Adj) N() int { return len(a.Off) - 1 }

// BFS fills dist with hop distances from src along the relation, using
// Unreachable for vertices it does not reach, and returns the number of
// reached vertices (including src). dist must have length N(); queue is
// scratch whose storage is reused when it holds N() entries (nil
// allocates), so callers running many searches pay for one queue.
func (a Adj) BFS(src int32, dist, queue []int32) int {
	if len(dist) != a.N() {
		panic("topo: BFS dist slice has wrong length")
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	if cap(queue) < len(dist) {
		queue = make([]int32, 0, len(dist))
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		for _, w := range a.Val[a.Off[v]:a.Off[v+1]] {
			if dist[w] == Unreachable {
				dist[w] = dv + 1
				queue = append(queue, w)
			}
		}
	}
	return len(queue)
}

// Connected reports whether every vertex is reachable from vertex 0.
func (a Adj) Connected() bool {
	n := a.N()
	buf := make([]int32, 2*n) // distances and the search queue in one allocation
	return n == 0 || a.BFS(0, buf[:n], buf[n:]) == n
}

// Dist is the element of a routing table: a hop count, or Far. A table
// holds one or three of them per pair of switches and a route lookup reads
// a few dozen, scattered over the rows of its target, so the type is the
// narrowest one no distance can overflow: a path never repeats a vertex,
// hence a finite distance among n <= MaxTableVertices vertices is below
// Far. Builders refuse anything larger before they write.
type Dist uint16

// Far marks a pair with no path in a Dist table. It is the largest value,
// so comparisons treat it as farther than any real distance.
const Far Dist = 1<<16 - 1

// MaxTableVertices is the largest vertex count a Dist table can cover.
const MaxTableVertices = int(Far)

// Hops widens d for arithmetic and for callers that work in int32
// distances: Far becomes Unreachable.
func (d Dist) Hops() int32 {
	if d == Far {
		return Unreachable
	}
	return int32(d)
}

// Closure builds a whole distance table at once, 64 pairs per machine
// word. Every vertex x owns a bitset S[x] over the vertices; Reset makes
// S_0[x] = {x} and each Step advances all of them one level,
//
//	S_k[x] = S_{k-1}[x] ∪ base[x] ∪ ⋃_{y ∈ adj(x)} S_{k-1}[y],
//
// so S_k[x] is exactly the set of vertices within k hops of x and the
// distance from x to t is the first level at which bit t appears in S[x].
// One level costs a word-OR per (edge, 64 vertices) where a search per
// vertex pays an edge visit per (edge, vertex). The all-pairs distance
// table (adj = live links) and the escape subnetwork's Up/Down tables
// (adj = Up, Down or descent links, base = another closure advanced in
// lock-step) are all instances. The zero value is ready for Reset, and a
// Closure kept between builds reuses its two bitset buffers.
type Closure struct {
	n, w      int
	cur, next []uint64
	closed    bool // a Step without base found nothing new: later ones are no-ops
}

// Reset sizes the closure for n vertices and sets S_0[x] = {x}.
func (c *Closure) Reset(n int) {
	c.n, c.w, c.closed = n, (n+63)/64, false
	size := n * c.w
	if cap(c.cur) < size {
		c.cur, c.next = make([]uint64, size), make([]uint64, size)
	} else {
		c.cur, c.next = c.cur[:size], c.next[:size]
		clear(c.cur)
	}
	for x := 0; x < n; x++ {
		c.cur[x*c.w+x>>6] = 1 << (x & 63)
	}
}

// Step advances the closure from level k-1 to level k over adj. base, when
// not nil, is another closure over the same vertices, already stepped to
// level k, whose sets are united in: a path of this closure may also be a
// path of base's relation alone. For every bit t that is new in S_k[x] it
// stores k at out[(x*n+t)*stride] — the row of x in a table interleaving
// stride columns; a nil out stores nothing. It reports whether any set
// grew: a closure with no base that did not grow has reached its fixpoint.
func (c *Closure) Step(adj Adj, base *Closure, k Dist, out []Dist, stride int) bool {
	if c.closed && base == nil {
		return false
	}
	w := c.w
	var grew uint64
	for x := 0; x < c.n; x++ {
		old := c.cur[x*w : x*w+w]
		row := c.next[x*w : x*w+w][:len(old)]
		copy(row, old)
		if base != nil {
			for i, b := range base.cur[x*w : x*w+w][:len(row)] {
				row[i] |= b
			}
		}
		for _, y := range adj.Val[adj.Off[x]:adj.Off[x+1]] {
			for i, b := range c.cur[int(y)*w : int(y)*w+w][:len(row)] {
				row[i] |= b
			}
		}
		for i, r := range row {
			fresh := r &^ old[i]
			grew |= fresh
			if out == nil {
				continue
			}
			for at := (x*c.n + i<<6) * stride; fresh != 0; fresh &= fresh - 1 {
				out[at+bits.TrailingZeros64(fresh)*stride] = k
			}
		}
	}
	c.cur, c.next = c.next, c.cur
	c.closed = grew == 0
	return grew != 0
}

// reached returns the total size of the sets: the ordered pairs within the
// current level of each other, self pairs included.
func (c *Closure) reached() int64 {
	var n int
	for _, w := range c.cur {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

// Distances overwrites d, row-major n*n, with the all-pairs hop distances
// along adj, Far where there is no path. adj has at most MaxTableVertices
// vertices.
func (c *Closure) Distances(adj Adj, d []Dist) {
	n := adj.N()
	for i := range d {
		d[i] = Far
	}
	for v := 0; v < n; v++ {
		d[v*n+v] = 0
	}
	c.Reset(n)
	for k := Dist(1); c.Step(adj, nil, k, d, 1); k++ {
	}
}
