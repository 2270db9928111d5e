package routing

import (
	"repro/internal/rng"
	"repro/internal/topo"
)

// DORAlg is Dimension Ordered Routing: align coordinates with the
// destination one dimension at a time, lowest dimension first, always
// through the single direct link. DOR gives exactly one route per pair, so
// — as the paper's motivation stresses — a single link failure on that route
// leaves the pair disconnected. It is included as the fragility baseline;
// PortCandidates simply returns nothing when the required link is dead.
type DORAlg struct {
	coordTables
}

// NewDOR builds DOR on nw. The network must be a HyperX.
func NewDOR(nw *topo.Network) (*DORAlg, error) {
	d := &DORAlg{}
	if err := d.Rebuild(nw); err != nil {
		return nil, err
	}
	return d, nil
}

// Name implements Algorithm.
func (d *DORAlg) Name() string { return "DOR" }

// Init implements Algorithm.
func (d *DORAlg) Init(st *PacketState, src, dst int32, _ *rng.Rand) {
	*st = PacketState{Src: src, Dst: dst}
}

// PortCandidates implements Algorithm: the unique next hop, if its link is
// alive.
func (d *DORAlg) PortCandidates(cur int32, st *PacketState, buf []PortCandidate) []PortCandidate {
	own, want, nbr := d.rows(cur, st.Dst)
	for dim, w := range want {
		if own[dim] == w {
			continue
		}
		if p := d.h.PortToCoord(dim, int(own[dim]), int(w)); nbr[p] >= 0 {
			buf = append(buf, PortCandidate{Port: p, Penalty: PenaltyMinimal})
		}
		return buf // first unaligned dimension only; dead link means stuck
	}
	return buf
}

// Advance implements Algorithm.
func (d *DORAlg) Advance(_ int32, _ int, st *PacketState) { st.Hops++ }

// MaxHops implements Algorithm: one hop per dimension.
func (d *DORAlg) MaxHops(*topo.Network) int { return d.h.NDims() }

// Rebuild implements Algorithm. DOR keeps no distances; it only adopts the
// new fault set, as a fresh port scan table (and stays broken for pairs
// whose route died, by design).
func (d *DORAlg) Rebuild(nw *topo.Network) error { return d.rebuild(nw, "DOR") }
