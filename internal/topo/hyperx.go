package topo

import "fmt"

// HyperX describes an n-dimensional HyperX (Hamming graph): the Cartesian
// product of complete graphs K_{k_1} x ... x K_{k_n}. Switch x is adjacent to
// switch y exactly when their coordinate vectors differ in one position.
//
// Ports on a switch are numbered deterministically: dimension by dimension,
// and within dimension i in increasing order of the neighbor's i-th
// coordinate, skipping the switch's own value. A switch therefore has
// sum(k_i - 1) switch-to-switch ports; server ports are handled by the
// simulator on top of this numbering.
type HyperX struct {
	dims    []int   // sides k_1..k_n
	strides []int32 // mixed-radix strides for ID<->coordinate conversion
	n       int32   // number of switches
	radix   int     // switch-to-switch ports per switch
	portDim []int   // dimension of each port index
	portOff []int   // first port index of each dimension
}

// MaxSwitches bounds every topology this package constructs: twice the
// 32x32x32 cube, the largest network the README sizes. The constructors
// check it, overflow-safely, before they allocate anything sized by their
// parameters, so dimensions read from a flag or a socket cost an error,
// never memory.
const MaxSwitches = 1 << 16

// NewHyperX constructs the HyperX with the given sides. Every side must be
// at least 2 (a side of 1 would add a dimension with no links).
func NewHyperX(dims ...int) (*HyperX, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("topo: HyperX needs at least one dimension")
	}
	h := &HyperX{
		dims:    append([]int(nil), dims...),
		strides: make([]int32, len(dims)),
		n:       1,
		portOff: make([]int, len(dims)+1),
	}
	for i, k := range dims {
		if k < 2 {
			return nil, fmt.Errorf("topo: HyperX side %d must be >= 2, got %d", i, k)
		}
		h.strides[i] = h.n
		if k > MaxSwitches/int(h.n) {
			return nil, fmt.Errorf("topo: HyperX with sides %v has more than %d switches", dims, MaxSwitches)
		}
		h.n *= int32(k)
		h.radix += k - 1
		h.portOff[i+1] = h.radix
	}
	h.portDim = make([]int, h.radix)
	for i := range dims {
		for p := h.portOff[i]; p < h.portOff[i+1]; p++ {
			h.portDim[p] = i
		}
	}
	return h, nil
}

// MustHyperX is NewHyperX that panics on error.
func MustHyperX(dims ...int) *HyperX {
	h, err := NewHyperX(dims...)
	if err != nil {
		panic(err)
	}
	return h
}

// Dims returns the sides k_1..k_n. Callers must not modify the slice.
func (h *HyperX) Dims() []int { return h.dims }

// NDims returns the number of dimensions n.
func (h *HyperX) NDims() int { return len(h.dims) }

// Switches returns the number of switches, the product of the sides.
func (h *HyperX) Switches() int { return int(h.n) }

// SwitchRadix returns the number of switch-to-switch ports per switch,
// sum(k_i - 1).
func (h *HyperX) SwitchRadix() int { return h.radix }

// Links returns the number of switch-to-switch links.
func (h *HyperX) Links() int { return int(h.n) * h.radix / 2 }

// Coord decodes switch id into its coordinate vector, reusing out when it
// has sufficient capacity.
func (h *HyperX) Coord(id int32, out []int) []int {
	out = out[:0]
	for i, k := range h.dims {
		out = append(out, int(id/h.strides[i])%k)
	}
	return out
}

// ID encodes a coordinate vector into a switch id.
func (h *HyperX) ID(coord []int) int32 {
	var id int32
	for i, c := range coord {
		id += int32(c) * h.strides[i]
	}
	return id
}

// CoordAt returns coordinate dim of switch id without allocating.
func (h *HyperX) CoordAt(id int32, dim int) int {
	return int(id/h.strides[dim]) % h.dims[dim]
}

// WithCoord returns the id of the switch equal to id except that coordinate
// dim is replaced by value.
func (h *HyperX) WithCoord(id int32, dim, value int) int32 {
	old := h.CoordAt(id, dim)
	return id + int32(value-old)*h.strides[dim]
}

// PortNeighbor returns the switch reached from x through port p, following
// the deterministic port numbering.
func (h *HyperX) PortNeighbor(x int32, p int) int32 {
	dim := h.portDim[p]
	slot := p - h.portOff[dim]
	own := h.CoordAt(x, dim)
	// Slots enumerate the other k-1 coordinate values in increasing order.
	val := slot
	if slot >= own {
		val = slot + 1
	}
	return h.WithCoord(x, dim, val)
}

// PortTo returns the port index on x whose link leads to y, or -1 when x and
// y are not adjacent.
func (h *HyperX) PortTo(x, y int32) int {
	if x == y {
		return -1
	}
	diffDim := -1
	for i := range h.dims {
		if h.CoordAt(x, i) != h.CoordAt(y, i) {
			if diffDim >= 0 {
				return -1 // differ in two dimensions: not adjacent
			}
			diffDim = i
		}
	}
	return h.PortToCoord(diffDim, h.CoordAt(x, diffDim), h.CoordAt(y, diffDim))
}

// PortToCoord returns the port of dimension dim that leads, from a switch
// whose coordinate there is own, to the neighbor with coordinate val: the
// slots of a dimension list the other k-1 values in increasing order.
func (h *HyperX) PortToCoord(dim, own, val int) int {
	slot := val
	if val > own {
		slot = val - 1
	}
	return h.portOff[dim] + slot
}

// PortDim returns the dimension a port index belongs to.
func (h *HyperX) PortDim(p int) int { return h.portDim[p] }

// DimPorts returns the half-open port index range [lo, hi) of dimension dim.
func (h *HyperX) DimPorts(dim int) (lo, hi int) {
	return h.portOff[dim], h.portOff[dim+1]
}

// HammingDistance returns the number of coordinates in which x and y differ,
// which equals the graph distance in a fault-free HyperX.
func (h *HyperX) HammingDistance(x, y int32) int32 {
	var d int32
	for i := range h.dims {
		if h.CoordAt(x, i) != h.CoordAt(y, i) {
			d++
		}
	}
	return d
}

// Edges returns all switch-to-switch links of the fault-free topology.
func (h *HyperX) Edges() []Edge {
	edges := make([]Edge, 0, h.Links())
	for x := int32(0); x < h.n; x++ {
		for p := 0; p < h.radix; p++ {
			y := h.PortNeighbor(x, p)
			if x < y {
				edges = append(edges, Edge{x, y})
			}
		}
	}
	return edges
}

// Graph returns the fault-free topology graph.
func (h *HyperX) Graph() *Graph {
	return MustGraph(int(h.n), h.Edges())
}

// LineSwitches returns the ids of all switches on the line through anchor in
// the given dimension (the K_k "row"), in coordinate order.
func (h *HyperX) LineSwitches(anchor int32, dim int) []int32 {
	k := h.dims[dim]
	ids := make([]int32, 0, k)
	for v := 0; v < k; v++ {
		ids = append(ids, h.WithCoord(anchor, dim, v))
	}
	return ids
}

// String describes the topology, e.g. "HyperX 8x8x8".
func (h *HyperX) String() string {
	s := "HyperX "
	for i, k := range h.dims {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(k)
	}
	return s
}
