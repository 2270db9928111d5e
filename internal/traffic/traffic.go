// Package traffic implements the synthetic traffic patterns of Section 4 of
// the paper: Uniform, Random Server Permutation, Dimension Complement
// Reverse (2D and 3D variants) and Regular Permutation to Neighbour — the
// new adversarial pattern the paper introduces to separate Omnidimensional
// from Polarized routes.
//
// Servers are numbered switch*S + w where S is the servers-per-switch count
// and w the server's index at its switch. All patterns are admissible (no
// endpoint contention): permutation patterns map servers bijectively, and
// Uniform is admissible in expectation.
package traffic

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/topo"
)

// Pattern yields a destination server for each generated message.
// Implementations must be safe for sequential use by a single simulation;
// they must not retain r.
type Pattern interface {
	// Name identifies the pattern in results.
	Name() string
	// Dest returns the destination server for a message generated at server
	// src. Stateless patterns ignore r.
	Dest(src int32, r *rng.Rand) int32
}

// Servers is a small helper describing the server numbering of a simulated
// network.
type Servers struct {
	H   *topo.HyperX
	Per int // servers per switch
}

// Count returns the total number of servers.
func (s Servers) Count() int { return s.H.Switches() * s.Per }

// Switch returns the switch a server attaches to.
func (s Servers) Switch(server int32) int32 { return server / int32(s.Per) }

// Local returns the server's index at its switch.
func (s Servers) Local(server int32) int { return int(server) % s.Per }

// ServerAt returns the server with the given switch and local index.
func (s Servers) ServerAt(sw int32, local int) int32 { return sw*int32(s.Per) + int32(local) }

// Uniform sends every message to a destination chosen uniformly among the
// other servers: the classical benign pattern.
type Uniform struct {
	n int32
}

// NewUniform builds the Uniform pattern for the given server count.
func NewUniform(servers int) (*Uniform, error) {
	if servers < 2 {
		return nil, fmt.Errorf("traffic: Uniform needs >= 2 servers, got %d", servers)
	}
	return &Uniform{n: int32(servers)}, nil
}

// Name implements Pattern.
func (u *Uniform) Name() string { return "Uniform" }

// Dest implements Pattern.
func (u *Uniform) Dest(src int32, r *rng.Rand) int32 {
	d := int32(r.Intn(int(u.n - 1)))
	if d >= src {
		d++
	}
	return d
}

// Permutation is a fixed server-to-server bijection; most of the paper's
// patterns reduce to one.
type Permutation struct {
	name string
	dst  []int32
}

// NewPermutation wraps an explicit destination table. The table must be a
// bijection.
func NewPermutation(name string, dst []int32) (*Permutation, error) {
	seen := make([]bool, len(dst))
	for _, d := range dst {
		if d < 0 || int(d) >= len(dst) || seen[d] {
			return nil, fmt.Errorf("traffic: %q table is not a permutation", name)
		}
		seen[d] = true
	}
	return &Permutation{name: name, dst: dst}, nil
}

// Name implements Pattern.
func (p *Permutation) Name() string { return p.name }

// Dest implements Pattern.
func (p *Permutation) Dest(src int32, _ *rng.Rand) int32 { return p.dst[src] }

// NewRandomServerPermutation draws a uniform random permutation of the
// servers from the given seed: the paper's Random Server Permutation, a
// balanced bulk-transfer scenario.
func NewRandomServerPermutation(servers int, seed uint64) (*Permutation, error) {
	if servers < 1 {
		return nil, fmt.Errorf("traffic: need >= 1 server, got %d", servers)
	}
	r := rng.NewStream(seed, 0x5e)
	perm := r.Perm(servers)
	dst := make([]int32, servers)
	for i, d := range perm {
		dst[i] = int32(d)
	}
	p, err := NewPermutation("Random Server Permutation", dst)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// NewDimensionComplementReverse builds the paper's Dimension Complement
// Reverse pattern.
//
// In 3D, servers at switch (x,y,z) send to the same-index server at switch
// (k-1-z, k-1-y, k-1-x). The paper's 2D variant folds the server coordinate
// in as another dimension: server (w,x,y) sends to server (k-1-y, k-1-x,
// k-1-w), i.e. local index k-1-y at switch (k-1-x, k-1-w). Both variants
// need equal sides, and the 2D variant needs servers-per-switch equal to
// the side.
func NewDimensionComplementReverse(sv Servers) (*Permutation, error) {
	h := sv.H
	k := h.Dims()[0]
	for _, side := range h.Dims() {
		if side != k {
			return nil, fmt.Errorf("traffic: DCR needs equal sides, got %v", h.Dims())
		}
	}
	n := sv.Count()
	dst := make([]int32, n)
	switch h.NDims() {
	case 2:
		if sv.Per != k {
			return nil, fmt.Errorf("traffic: 2D DCR needs %d servers per switch, got %d", k, sv.Per)
		}
		for s := 0; s < n; s++ {
			sw := sv.Switch(int32(s))
			w := sv.Local(int32(s))
			x, y := h.CoordAt(sw, 0), h.CoordAt(sw, 1)
			tsw := h.ID([]int{k - 1 - x, k - 1 - w})
			dst[s] = sv.ServerAt(tsw, k-1-y)
		}
	case 3:
		for s := 0; s < n; s++ {
			sw := sv.Switch(int32(s))
			x, y, z := h.CoordAt(sw, 0), h.CoordAt(sw, 1), h.CoordAt(sw, 2)
			tsw := h.ID([]int{k - 1 - z, k - 1 - y, k - 1 - x})
			dst[s] = sv.ServerAt(tsw, sv.Local(int32(s)))
		}
	default:
		return nil, fmt.Errorf("traffic: DCR defined for 2 or 3 dimensions, got %d", h.NDims())
	}
	return NewPermutation("Dimension Complement Reverse", dst)
}

// NewRegularPermutationToNeighbour builds the paper's new adversarial
// pattern (Section 4). The HyperX decomposes into (k/2)^n embedded K_2^n
// hypercubes over coordinate pairs {2a, 2a+1}; within each hypercube every
// switch sends to its successor on a directed Hamiltonian cycle of the
// 2^n corners (a Gray-code cycle), and server w maps to server w at the
// destination switch. Every source-destination pair sits at Hamming
// distance 1, and each K_k row either carries no pairs or k/2 disjoint
// pairs, bounding aligned-route throughput by 0.5 (the Omnidimensional
// ceiling Polarized escapes via parallel rows).
func NewRegularPermutationToNeighbour(sv Servers) (*Permutation, error) {
	h := sv.H
	ndims := h.NDims()
	if ndims < 2 {
		return nil, fmt.Errorf("traffic: RPN needs >= 2 dimensions, got %d", ndims)
	}
	for _, side := range h.Dims() {
		if side%2 != 0 {
			return nil, fmt.Errorf("traffic: RPN needs even sides, got %v", h.Dims())
		}
	}
	n := sv.Count()
	dst := make([]int32, n)
	coord := make([]int, ndims)
	for s := 0; s < n; s++ {
		sw := sv.Switch(int32(s))
		coord = h.Coord(sw, coord)
		// Corner bits of the embedded hypercube, packed little-endian.
		corner := 0
		for i, c := range coord {
			corner |= (c & 1) << i
		}
		// Successor on the Gray-code Hamiltonian cycle of the 2^ndims cube.
		next := grayNext(corner, ndims)
		for i := range coord {
			coord[i] = (coord[i] &^ 1) | ((next >> i) & 1)
		}
		dst[s] = sv.ServerAt(h.ID(coord), sv.Local(int32(s)))
	}
	return NewPermutation("Regular Permutation to Neighbour", dst)
}

// grayNext returns the successor of corner on the Gray-code Hamiltonian
// cycle of the ndims-dimensional hypercube: position i in the visiting
// order maps to code i XOR (i >> 1).
func grayNext(corner, ndims int) int {
	// Invert the Gray code to find the position of this corner.
	pos := 0
	for g := corner; g != 0; g >>= 1 {
		pos ^= g
	}
	nextPos := (pos + 1) & (1<<ndims - 1)
	return nextPos ^ (nextPos >> 1)
}
