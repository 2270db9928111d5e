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

// BuildTables computes distance tables for the live links of nw. It fails if
// the live graph is disconnected, since distance-driven routing is undefined
// across components.
func BuildTables(nw *topo.Network) (*Tables, error) {
	t := &Tables{}
	if err := t.Rebuild(nw); err != nil {
		return nil, err
	}
	return t, nil
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
// table, or -1 when the link has failed.
func (t *Tables) LiveNeighbor(x int32, p int) int32 { return t.live.Nbr[int(x)*t.live.Radix+p] }

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
