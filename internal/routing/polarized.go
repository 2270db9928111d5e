package routing

import (
	"repro/internal/rng"
	"repro/internal/topo"
)

// PolarizedAlg implements Polarized routing [Camarero, Martínez, Beivide;
// HOTI'21 / IEEE Micro'22], Section 3.1.2 of the paper. Routes are built
// hop by hop so that the weight function
//
//	mu(c) = d(c, s) - d(c, t)
//
// never decreases. With ds = d(s, next) - d(s, cur) and dt analogous, the
// allowed moves are exactly the five cells of the paper's Table 1:
//
//	(+1,-1) dmu=2   depart source, approach target   penalty 0
//	(+1, 0) dmu=1   depart source, revolve target    penalty 64
//	( 0,-1) dmu=1   revolve source, approach target  penalty 64
//	(+1,+1) dmu=0   depart both;  only while closer to the source, penalty 80
//	(-1,-1) dmu=0   approach both; only while closer to the target, penalty 80
//
// The dmu = 0 filter uses a header bit (d(c,s) < d(c,t)) updated each hop,
// which prevents cycles. All decisions read the BFS distance tables, so
// Polarized adapts to any connected faulty topology after a table rebuild —
// the property SurePath leans on in Section 6.
type PolarizedAlg struct {
	nw  *topo.Network
	tab Tables
}

// NewPolarized builds Polarized routing on nw.
func NewPolarized(nw *topo.Network) (*PolarizedAlg, error) {
	p := &PolarizedAlg{}
	if err := p.Rebuild(nw); err != nil {
		return nil, err
	}
	return p, nil
}

// Name implements Algorithm.
func (p *PolarizedAlg) Name() string { return "Polarized" }

// Init implements Algorithm.
func (p *PolarizedAlg) Init(st *PacketState, src, dst int32, _ *rng.Rand) {
	*st = PacketState{Src: src, Dst: dst, CloserToSrc: src != dst}
}

// PortCandidates implements Algorithm.
func (p *PolarizedAlg) PortCandidates(cur int32, st *PacketState, buf []PortCandidate) []PortCandidate {
	if cur == st.Dst {
		return buf
	}
	tab := &p.tab
	n := tab.n
	srcRow := tab.dist[int(st.Src)*n:]
	dstRow := tab.dist[int(st.Dst)*n:]
	lv := tab.live
	nbr := lv.Nbr[int(cur)*lv.Radix : int(cur+1)*lv.Radix]
	ds0 := srcRow[cur]
	dt0 := dstRow[cur]
	for port, next := range nbr {
		if next < 0 {
			continue // failed link
		}
		ds := srcRow[next] - ds0
		dt := dstRow[next] - dt0
		var penalty int32 = -1
		switch {
		case ds == 1 && dt == -1:
			penalty = PenaltyPolarized2
		case ds == 1 && dt == 0, ds == 0 && dt == -1:
			penalty = PenaltyPolarized1
		case ds == 1 && dt == 1 && st.CloserToSrc:
			penalty = PenaltyPolarized0
		case ds == -1 && dt == -1 && !st.CloserToSrc:
			penalty = PenaltyPolarized0
		}
		if penalty >= 0 {
			buf = append(buf, PortCandidate{Port: port, Penalty: penalty})
		}
	}
	return buf
}

// Advance implements Algorithm: updates the hop count and the polarization
// header bit.
func (p *PolarizedAlg) Advance(cur int32, port int, st *PacketState) {
	st.Hops++
	next := p.nw.H.PortNeighbor(cur, port)
	st.CloserToSrc = p.tab.D(st.Src, next) < p.tab.D(st.Dst, next)
}

// MaxHops implements Algorithm: polarized routes are at most twice the
// diameter (Section 3.1.2).
func (p *PolarizedAlg) MaxHops(*topo.Network) int { return 2 * int(p.tab.Diameter()) }

// Rebuild implements Algorithm: in-place table refresh, the "discovery at boot,
// upgrade or failure" of the paper.
func (p *PolarizedAlg) Rebuild(nw *topo.Network) error {
	if err := p.tab.Rebuild(nw); err != nil {
		return err
	}
	p.nw = nw
	return nil
}

// Tables exposes the distance tables (shared with SurePath's diagnostics).
func (p *PolarizedAlg) Tables() *Tables { return &p.tab }
