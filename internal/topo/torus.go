package topo

import "fmt"

// Torus is a k-ary n-cube: switches on an n-dimensional grid with
// wrap-around links, the classic HPC topology (Tofu, Blue Gene). Ports are
// numbered 2*dim for the +1 direction and 2*dim+1 for the -1 direction.
// Sides must be at least 3 so the two directions lead to distinct
// neighbors (a side of 2 would create parallel links).
//
// The torus exists here for the paper's Section 7: its escape subnetwork
// is far from shortest paths, unlike HyperX's.
type Torus struct {
	dims    []int
	strides []int32
	n       int32
}

// NewTorus constructs the torus with the given sides (each >= 3).
func NewTorus(dims ...int) (*Torus, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("topo: torus needs at least one dimension")
	}
	t := &Torus{dims: append([]int(nil), dims...), strides: make([]int32, len(dims)), n: 1}
	for i, k := range dims {
		if k < 3 {
			return nil, fmt.Errorf("topo: torus side %d must be >= 3, got %d", i, k)
		}
		t.strides[i] = t.n
		if k > MaxSwitches/int(t.n) {
			return nil, fmt.Errorf("topo: torus with sides %v has more than %d switches", dims, MaxSwitches)
		}
		t.n *= int32(k)
	}
	return t, nil
}

// MustTorus is NewTorus that panics on error.
func MustTorus(dims ...int) *Torus {
	t, err := NewTorus(dims...)
	if err != nil {
		panic(err)
	}
	return t
}

// Dims returns the sides. Callers must not modify the slice.
func (t *Torus) Dims() []int { return t.dims }

// NDims returns the number of dimensions.
func (t *Torus) NDims() int { return len(t.dims) }

// Switches implements Switched.
func (t *Torus) Switches() int { return int(t.n) }

// SwitchRadix implements Switched: two ports per dimension.
func (t *Torus) SwitchRadix() int { return 2 * len(t.dims) }

// CoordAt returns coordinate dim of switch id.
func (t *Torus) CoordAt(id int32, dim int) int {
	return int(id/t.strides[dim]) % t.dims[dim]
}

// ID encodes a coordinate vector.
func (t *Torus) ID(coord []int) int32 {
	var id int32
	for i, c := range coord {
		id += int32(c) * t.strides[i]
	}
	return id
}

// PortNeighbor implements Switched.
func (t *Torus) PortNeighbor(x int32, p int) int32 {
	dim := p / 2
	k := t.dims[dim]
	c := t.CoordAt(x, dim)
	next := (c + 1) % k
	if p%2 == 1 {
		next = (c - 1 + k) % k
	}
	return x + int32(next-c)*t.strides[dim]
}

// PortTo implements Switched.
func (t *Torus) PortTo(x, y int32) int {
	if x == y {
		return -1
	}
	diffDim := -1
	for i := range t.dims {
		if t.CoordAt(x, i) != t.CoordAt(y, i) {
			if diffDim >= 0 {
				return -1
			}
			diffDim = i
		}
	}
	k := t.dims[diffDim]
	cx, cy := t.CoordAt(x, diffDim), t.CoordAt(y, diffDim)
	switch {
	case (cx+1)%k == cy:
		return 2 * diffDim
	case (cx-1+k)%k == cy:
		return 2*diffDim + 1
	}
	return -1
}

// Edges implements Switched.
func (t *Torus) Edges() []Edge {
	set := make(map[Edge]struct{})
	for x := int32(0); x < t.n; x++ {
		for p := 0; p < t.SwitchRadix(); p++ {
			set[NewEdge(x, t.PortNeighbor(x, p))] = struct{}{}
		}
	}
	edges := make([]Edge, 0, len(set))
	for e := range set {
		edges = append(edges, e)
	}
	return SortEdges(edges)
}

// String implements Switched.
func (t *Torus) String() string {
	s := "Torus "
	for i, k := range t.dims {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(k)
	}
	return s
}
