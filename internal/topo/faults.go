package topo

import (
	"fmt"

	"repro/internal/rng"
)

// FaultSet is a set of failed (removed) links. The zero value is an empty,
// usable set.
type FaultSet struct {
	dead map[Edge]struct{}
}

// NewFaultSet returns a fault set preloaded with the given edges.
func NewFaultSet(edges ...Edge) *FaultSet {
	f := &FaultSet{}
	f.AddAll(edges)
	return f
}

// Add marks the link between a and b as failed.
func (f *FaultSet) Add(a, b int32) {
	if f.dead == nil {
		f.dead = make(map[Edge]struct{})
	}
	f.dead[NewEdge(a, b)] = struct{}{}
}

// AddAll marks every given link as failed.
func (f *FaultSet) AddAll(edges []Edge) {
	for _, e := range edges {
		f.Add(e.U, e.V)
	}
}

// Has reports whether the link between a and b has failed.
func (f *FaultSet) Has(a, b int32) bool {
	if f == nil || f.dead == nil {
		return false
	}
	_, dead := f.dead[NewEdge(a, b)]
	return dead
}

// Len returns the number of failed links.
func (f *FaultSet) Len() int {
	if f == nil {
		return 0
	}
	return len(f.dead)
}

// Edges returns the failed links sorted by (U, V).
func (f *FaultSet) Edges() []Edge {
	if f == nil {
		return nil
	}
	edges := make([]Edge, 0, len(f.dead))
	for e := range f.dead {
		edges = append(edges, e)
	}
	return SortEdges(edges)
}

// Clone returns an independent copy of the fault set.
func (f *FaultSet) Clone() *FaultSet {
	c := &FaultSet{}
	if f != nil {
		//hx:allow maprange Add only inserts into the clone's set; membership is order-insensitive
		for e := range f.dead {
			c.Add(e.U, e.V)
		}
	}
	return c
}

// RandomFaultSequence returns a uniformly random ordering of all links of
// the topology, drawn without replacement from the given seed. Sorting
// first makes the draw independent of edge-enumeration order. Taking
// prefixes of the result models a growing set of isolated random failures,
// the scenario of Figures 1 and 6 of the paper.
func RandomFaultSequence(t Switched, seed uint64) []Edge {
	edges := SortEdges(t.Edges())
	r := rng.NewStream(seed, 0xFA)
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// Network is a switched topology together with a set of failed links: the
// "current" topology a routed network observes. Ports keep their fault-free
// numbering; a port whose link failed is simply down.
type Network struct {
	H      Switched
	Faults *FaultSet
}

// NewNetwork pairs a topology with a fault set (nil means no faults).
func NewNetwork(t Switched, faults *FaultSet) *Network {
	if faults == nil {
		faults = &FaultSet{}
	}
	return &Network{H: t, Faults: faults}
}

// PortAlive reports whether port p of switch x has a live link.
func (nw *Network) PortAlive(x int32, p int) bool {
	return !nw.Faults.Has(x, nw.H.PortNeighbor(x, p))
}

// AliveDegree returns the number of live switch-to-switch links at x.
func (nw *Network) AliveDegree(x int32) int {
	alive := 0
	for p := 0; p < nw.H.SwitchRadix(); p++ {
		if nw.PortAlive(x, p) {
			alive++
		}
	}
	return alive
}

// Graph returns the graph of live links only.
func (nw *Network) Graph() *Graph {
	all := nw.H.Edges()
	edges := make([]Edge, 0, len(all)-nw.Faults.Len())
	for _, e := range all {
		if !nw.Faults.Has(e.U, e.V) {
			edges = append(edges, e)
		}
	}
	return MustGraph(nw.H.Switches(), edges)
}

// Validate checks that every failed link is an actual link of the topology.
func (nw *Network) Validate() error {
	for _, e := range nw.Faults.Edges() {
		if nw.H.PortTo(e.U, e.V) < 0 {
			return fmt.Errorf("topo: fault (%d,%d) is not a link of %s", e.U, e.V, nw.H)
		}
	}
	return nil
}
