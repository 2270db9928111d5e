package routing

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/topo"
)

// DALAlg is DAL (Dimensionally-Adaptive, Load-balanced), the routing
// originally proposed with the HyperX topology [Ahn et al., SC'09]. Like
// Omnidimensional routing it moves only through unaligned dimensions, but
// the deroute budget is per dimension: each dimension may be derouted at
// most once, after which hops in it must be minimal. The paper's
// motivation notes DAL "only supports one fault in the network"; the tests
// demonstrate the fragility (a stuck packet needs exactly the scenario the
// paper describes), and SurePath over DAL routes lifts it.
type DALAlg struct {
	coordTables
}

// NewDAL builds DAL routing on nw.
func NewDAL(nw *topo.Network) (*DALAlg, error) {
	d := &DALAlg{}
	if err := d.Rebuild(nw); err != nil {
		return nil, err
	}
	if d.h.NDims() > 30 {
		// DerouteMask packs one bit per dimension into an int32.
		return nil, fmt.Errorf("routing: DAL supports at most 30 dimensions, got %d", d.h.NDims())
	}
	return d, nil
}

// Name implements Algorithm.
func (d *DALAlg) Name() string { return "DAL" }

// Init implements Algorithm.
func (d *DALAlg) Init(st *PacketState, src, dst int32, _ *rng.Rand) {
	*st = PacketState{Src: src, Dst: dst}
}

// PortCandidates implements Algorithm: per unaligned dimension, the
// aligning neighbor (minimal) plus — while the dimension's deroute is
// unspent — the other neighbors of that dimension.
func (d *DALAlg) PortCandidates(cur int32, st *PacketState, buf []PortCandidate) []PortCandidate {
	h := d.h
	own, want, nbr := d.rows(cur, st.Dst)
	for dim, w := range want {
		if own[dim] == w {
			continue
		}
		spent := st.DerouteMask&(1<<dim) != 0
		lo, hi := h.DimPorts(dim)
		minimal := h.PortToCoord(dim, int(own[dim]), int(w))
		for p := lo; p < hi; p++ {
			if nbr[p] < 0 {
				continue // failed link
			}
			if p == minimal {
				buf = append(buf, PortCandidate{Port: p, Penalty: PenaltyMinimal})
			} else if !spent {
				buf = append(buf, PortCandidate{Port: p, Penalty: PenaltyDeroute, Deroute: true})
			}
		}
	}
	return buf
}

// Advance implements Algorithm.
func (d *DALAlg) Advance(cur int32, port int, st *PacketState) {
	st.Hops++
	dim := d.h.PortDim(port)
	if d.minimalHop(cur, st.Dst, port, dim) {
		st.MinHops++
	} else {
		st.Deroutes++
		st.DerouteMask |= 1 << dim
	}
}

// MaxHops implements Algorithm: at most two hops per dimension.
func (d *DALAlg) MaxHops(*topo.Network) int { return 2 * d.h.NDims() }

// Rebuild implements Algorithm: DAL is coordinate-driven like
// Omnidimensional; it only adopts the new fault set.
func (d *DALAlg) Rebuild(nw *topo.Network) error { return d.rebuild(nw, "DAL") }
