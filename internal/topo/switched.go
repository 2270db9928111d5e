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

// SortEdges orders edges by (U, V) in place and returns them: the single
// definition of canonical edge order, used both by Edges implementations
// derived from a map and by the job-spec canonical encoding (the two must
// agree or equal fault sets would hash differently).
//
// Each edge is packed into one uint64 key and the keys are sorted as plain
// integers: a warm-cache grid point is mostly a spec hash, and this sort
// was most of the hash with a two-field comparator (BenchmarkSpecHash).
// Flipping each id's sign bit makes unsigned key order equal lexicographic
// int32 (U, V) order, negative ids included (a decoded spec carries them
// until Validate).
func SortEdges(edges []Edge) []Edge {
	const flip = 1 << 31
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = uint64(uint32(e.U)^flip)<<32 | uint64(uint32(e.V)^flip)
	}
	slices.Sort(keys)
	for i, k := range keys {
		edges[i] = Edge{U: int32(uint32(k>>32) ^ flip), V: int32(uint32(k) ^ flip)}
	}
	return edges
}
