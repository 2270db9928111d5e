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

// polarizedPenalty is Table 1 indexed by [header bit][3*(ds+1) + (dt+1)]:
// the penalty of the move, or -1 where mu would decrease. Only the two
// dmu = 0 cells depend on the header bit (row 1: closer to the source).
var polarizedPenalty = [2][9]int8{
	{
		0: PenaltyPolarized0, // (-1,-1): approach both, closer to the target
		1: -1, 2: -1,
		3: PenaltyPolarized1, // ( 0,-1)
		4: -1, 5: -1,
		6: PenaltyPolarized2, // (+1,-1)
		7: PenaltyPolarized1, // (+1, 0)
		8: -1,
	},
	{
		0: -1, 1: -1, 2: -1,
		3: PenaltyPolarized1,
		4: -1, 5: -1,
		6: PenaltyPolarized2,
		7: PenaltyPolarized1,
		8: PenaltyPolarized0, // (+1,+1): depart both, closer to the source
	},
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
	lut := &polarizedPenalty[0]
	if st.CloserToSrc {
		lut = &polarizedPenalty[1]
	}
	// Neighbours are one hop apart, so both differences are in {-1, 0, +1}
	// and the biased sums below are 0, 1 or 2 in unsigned arithmetic.
	ds1 := 1 - srcRow[cur]
	dt1 := 1 - dstRow[cur]
	for port, next := range nbr {
		if next < 0 {
			continue // failed link
		}
		if penalty := lut[3*(srcRow[next]+ds1)+(dstRow[next]+dt1)]; penalty >= 0 {
			buf = append(buf, PortCandidate{Port: port, Penalty: int32(penalty)})
		}
	}
	return buf
}

// Advance implements Algorithm: updates the hop count and the polarization
// header bit.
func (p *PolarizedAlg) Advance(cur int32, port int, st *PacketState) {
	st.Hops++
	tab := &p.tab
	next := int(tab.LiveNeighbor(cur, port))
	st.CloserToSrc = tab.dist[int(st.Src)*tab.n+next] < tab.dist[int(st.Dst)*tab.n+next]
}

// MaxHops implements Algorithm: polarized routes are at most twice the
// diameter (Section 3.1.2).
func (p *PolarizedAlg) MaxHops(*topo.Network) int { return 2 * int(p.tab.Diameter()) }

// Rebuild implements Algorithm: in-place table refresh, the "discovery at boot,
// upgrade or failure" of the paper.
func (p *PolarizedAlg) Rebuild(nw *topo.Network) error { return p.tab.Rebuild(nw) }

// Tables exposes the distance tables (shared with SurePath's diagnostics).
func (p *PolarizedAlg) Tables() *Tables { return &p.tab }
