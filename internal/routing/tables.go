package routing

import (
	"fmt"

	"repro/internal/topo"
)

// requireHyperX unwraps the network's topology as a HyperX for the
// coordinate-driven algorithms (DOR, Omnidimensional, DAL); table-driven
// algorithms run on any topo.Switched.
func requireHyperX(nw *topo.Network, alg string) (*topo.HyperX, error) {
	h, ok := nw.H.(*topo.HyperX)
	if !ok {
		return nil, fmt.Errorf("routing: %s is coordinate-driven and needs a HyperX, got %s", alg, nw.H)
	}
	return h, nil
}

// Tables holds the all-pairs distance table of the live topology, the state
// the paper's table-based routings (Minimal, Valiant, Polarized) consult.
// They are rebuilt whenever the fault set changes, which the paper argues
// keeps SurePath's cost in the order of plain Minimal routing. The zero
// value is ready for Rebuild.
type Tables struct {
	n    int
	dist []topo.Dist // row-major n*n live-graph distances
	// live is the flattened topology the distances were built from, the
	// port scan table of PortCandidates. It is replaced with the distances
	// on every fault, so it can never go stale.
	live  *topo.Live
	links topo.Adj     // the live links, kept for their storage
	reach topo.Closure // the distance build's bitsets, likewise
}

// Rebuild recomputes the tables for the current fault set of nw, in place:
// the distance table and the bitsets it is built from are reused. A
// network that is disconnected, or has more switches than a topo.Dist
// table covers, is reported before anything is overwritten, so a failed
// Rebuild leaves the previous tables intact.
func (t *Tables) Rebuild(nw *topo.Network) error {
	if n := nw.H.Switches(); n > topo.MaxTableVertices {
		return fmt.Errorf("routing: %d switches exceed the %d a distance table covers", n, topo.MaxTableVertices)
	}
	lv := nw.LiveNeighbors()
	n := lv.N
	t.links = lv.Adj(t.links, nil)
	if !t.links.Connected() {
		return fmt.Errorf("routing: network is disconnected (%d faults)", nw.Faults.Len())
	}
	if cap(t.dist) < n*n {
		t.dist = make([]topo.Dist, n*n)
	}
	t.n, t.dist = n, t.dist[:n*n]
	t.reach.Distances(t.links, t.dist)
	t.live = lv
	return nil
}

// Live returns the flattened live topology the tables were last built
// from, for table builders refreshed in the same rebuild.
func (t *Tables) Live() *topo.Live { return t.live }

// LiveNeighbor returns PortNeighbor(x, p) from the flattened live-topology
// table, or -1 when the link has failed: how Advance finds the switch a
// packet has just been granted.
func (t *Tables) LiveNeighbor(x int32, p int) int32 { return t.live.Nbr[int(x)*t.live.Radix+p] }

// minimalPorts appends the live ports of cur that lead one hop closer to
// dst, in port order, penalty 0: the scan of Minimal and of both Valiant
// phases. Rows are read narrow and the neighbour comes from the flattened
// topology, so a port costs two loads whether or not links have failed.
func (t *Tables) minimalPorts(cur, dst int32, buf []PortCandidate) []PortCandidate {
	lv := t.live
	dstRow := t.dist[int(dst)*t.n:]
	// At dst itself closer is Far, which a table of a connected network
	// never holds: no port is offered.
	closer := dstRow[cur] - 1
	for port, next := range lv.Nbr[int(cur)*lv.Radix : int(cur+1)*lv.Radix] {
		if next >= 0 && dstRow[next] == closer {
			buf = append(buf, PortCandidate{Port: port, Penalty: PenaltyMinimal})
		}
	}
	return buf
}

// N returns the number of switches covered by the tables.
func (t *Tables) N() int { return t.n }

// D returns the live-graph distance between switches a and b.
func (t *Tables) D(a, b int32) int32 { return t.dist[int(a)*t.n+int(b)].Hops() }

// Diameter returns the largest tabulated distance.
func (t *Tables) Diameter() int32 {
	var m topo.Dist
	for _, d := range t.dist {
		if d > m {
			m = d
		}
	}
	return m.Hops()
}

// coordTables is everything a coordinate-driven algorithm (DOR,
// Omnidimensional, DAL) reads per hop. They keep no distances, only the
// flattened topology of the last Rebuild — the port scan table the
// table-driven routings use too, where a dead link costs one load, not a
// fault-set probe — and coord[x*n+dim], switch x's coordinates, so a scan
// divides nothing.
type coordTables struct {
	h     *topo.HyperX
	live  *topo.Live
	coord []int32
}

// rebuild adopts the current fault set of nw as a fresh port scan table. The
// coordinates only depend on the topology and are kept while it stays.
func (c *coordTables) rebuild(nw *topo.Network, alg string) error {
	h, err := requireHyperX(nw, alg)
	if err != nil {
		return err
	}
	if c.h != h {
		n := h.NDims()
		c.coord = make([]int32, h.Switches()*n)
		for x := range h.Switches() {
			for dim := range n {
				c.coord[x*n+dim] = int32(h.CoordAt(int32(x), dim))
			}
		}
	}
	c.h, c.live = h, nw.LiveNeighbors()
	return nil
}

// Live returns the flattened live topology of the last Rebuild, for table
// builders refreshed in the same rebuild.
func (c *coordTables) Live() *topo.Live { return c.live }

// rows returns the coordinates of cur and of dst and the port scan row of
// cur.
func (c *coordTables) rows(cur, dst int32) (own, want, nbr []int32) {
	n := c.h.NDims()
	return c.coord[int(cur)*n:][:n], c.coord[int(dst)*n:][:n], c.live.Nbr[int(cur)*c.live.Radix:]
}

// minimalHop reports whether the hop through port of cur, a port of
// dimension dim, aligns that dimension with dst.
func (c *coordTables) minimalHop(cur, dst int32, port, dim int) bool {
	n := c.h.NDims()
	own, want := c.coord[int(cur)*n+dim], c.coord[int(dst)*n+dim]
	return own != want && port == c.h.PortToCoord(dim, int(own), int(want))
}
