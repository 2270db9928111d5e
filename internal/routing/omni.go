package routing

import (
	"repro/internal/rng"
	"repro/internal/topo"
)

// OmniAlg is the Omnidimensional routing of DAL [Ahn et al., SC'09] and
// OmniWAR [McDonald et al., SC'19], Section 3.1.1 of the paper. At each hop
// a packet may move only through dimensions where its current coordinate
// differs from the destination's; every neighbor through such a dimension is
// a candidate. The one neighbor aligning the dimension is minimal (penalty
// 0); the k-2 others are deroutes (penalty 64), capped by a global budget of
// m non-minimal hops. The paper fixes m = n (the number of dimensions),
// which it notes is always enough.
type OmniAlg struct {
	coordTables
	maxDeroute int32
}

// NewOmni builds Omnidimensional routing on nw with the paper's deroute
// budget m = n. The network must be a HyperX: the algorithm is
// coordinate-driven.
func NewOmni(nw *topo.Network) (*OmniAlg, error) {
	o := &OmniAlg{}
	if err := o.Rebuild(nw); err != nil {
		return nil, err
	}
	o.maxDeroute = int32(o.h.NDims())
	return o, nil
}

// Name implements Algorithm.
func (o *OmniAlg) Name() string { return "Omnidimensional" }

// Init implements Algorithm.
func (o *OmniAlg) Init(st *PacketState, src, dst int32, _ *rng.Rand) {
	*st = PacketState{Src: src, Dst: dst}
}

// PortCandidates implements Algorithm.
func (o *OmniAlg) PortCandidates(cur int32, st *PacketState, buf []PortCandidate) []PortCandidate {
	h := o.h
	own, want, nbr := o.rows(cur, st.Dst)
	allowDeroute := st.Deroutes < o.maxDeroute
	for dim, w := range want {
		if own[dim] == w {
			continue // aligned dimension: no moves, not even deroutes
		}
		lo, hi := h.DimPorts(dim)
		minimal := h.PortToCoord(dim, int(own[dim]), int(w))
		for p := lo; p < hi; p++ {
			if nbr[p] < 0 {
				continue // failed link
			}
			if p == minimal {
				buf = append(buf, PortCandidate{Port: p, Penalty: PenaltyMinimal})
			} else if allowDeroute {
				buf = append(buf, PortCandidate{Port: p, Penalty: PenaltyDeroute, Deroute: true})
			}
		}
	}
	return buf
}

// Advance implements Algorithm: classifies the hop as minimal or deroute.
func (o *OmniAlg) Advance(cur int32, port int, st *PacketState) {
	st.Hops++
	if o.minimalHop(cur, st.Dst, port, o.h.PortDim(port)) {
		st.MinHops++
	} else {
		st.Deroutes++
	}
}

// MaxHops implements Algorithm: n minimal hops plus the deroute budget.
func (o *OmniAlg) MaxHops(*topo.Network) int {
	return o.h.NDims() + int(o.maxDeroute)
}

// Rebuild implements Algorithm. Omnidimensional is coordinate-driven and
// keeps no distance tables; it only adopts the fault set, as a fresh port
// scan table. As the paper discusses, this is exactly why it degrades under
// failures: a dead minimal link is simply not offered, and a packet out of
// deroutes has no legal hop left.
func (o *OmniAlg) Rebuild(nw *topo.Network) error { return o.rebuild(nw, "Omnidimensional") }
