package topo

import "slices"

// Switched is the abstract switch-level topology the routing stack runs
// on: a set of switches with numbered ports. HyperX is the paper's
// subject; Torus and Dragonfly exist to reproduce the Section 7 discussion
// of SurePath beyond HyperX (the escape subnetwork "apparently could be
// used in any topology", but only HyperX gives it shortest paths).
//
// Distance-table-driven algorithms (Minimal, Valiant, Polarized), the
// escape subnetwork, SurePath and the simulator work on any Switched;
// coordinate-driven algorithms (DOR, Omnidimensional, DAL) require a
// *HyperX and say so at construction.
type Switched interface {
	// Switches returns the number of switches.
	Switches() int
	// SwitchRadix returns the number of switch-to-switch ports per switch.
	SwitchRadix() int
	// PortNeighbor returns the switch reached through port p of x. Every
	// port in [0, SwitchRadix()) must lead somewhere; parallel ports are
	// not allowed.
	PortNeighbor(x int32, p int) int32
	// PortTo returns the port on x leading to y, or -1 when not adjacent.
	PortTo(x, y int32) int
	// Edges returns all switch-to-switch links, normalized.
	Edges() []Edge
	// String names the topology.
	String() string
}

// Compile-time interface checks for the provided topologies.
var (
	_ Switched = (*HyperX)(nil)
	_ Switched = (*Torus)(nil)
	_ Switched = (*Dragonfly)(nil)
)

// GraphOf builds the fault-free graph of any switched topology.
//
//hx:allow unusedexport test reference: the fault-free oracle of routing/candidates_ref_test.go and escape/oracle_test.go
func GraphOf(t Switched) *Graph {
	return MustGraph(t.Switches(), t.Edges())
}

// EdgeKey is an edge packed into one integer whose unsigned order is the
// canonical (U, V) edge order: the single definition of that order, used
// by SortEdges — behind the Edges implementations derived from a map — and
// by the job-spec canonical encoding, which sorts keys and prints from them
// (the two must agree or equal fault sets would hash differently). Flipping
// each id's sign bit makes unsigned key order equal lexicographic int32
// (U, V) order, negative ids included (a decoded spec carries them until
// Validate).
type EdgeKey uint64

const edgeKeyFlip = 1 << 31

// Key packs e; the edge is taken as is, so normalize it first (NewEdge)
// when orientation must not matter.
func (e Edge) Key() EdgeKey {
	return EdgeKey(uint64(uint32(e.U)^edgeKeyFlip)<<32 | uint64(uint32(e.V)^edgeKeyFlip))
}

// Edge unpacks the key.
func (k EdgeKey) Edge() Edge {
	return Edge{U: int32(uint32(k>>32) ^ edgeKeyFlip), V: int32(uint32(k) ^ edgeKeyFlip)}
}

// SortEdges orders edges by (U, V) in place and returns them, sorting their
// EdgeKeys as plain integers (a two-field comparator costs several times
// more).
func SortEdges(edges []Edge) []Edge {
	keys := make([]EdgeKey, len(edges))
	for i, e := range edges {
		keys[i] = e.Key()
	}
	slices.Sort(keys)
	for i, k := range keys {
		edges[i] = k.Edge()
	}
	return edges
}
