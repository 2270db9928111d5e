package routing

import (
	"repro/internal/rng"
	"repro/internal/topo"
)

// ValiantAlg implements Valiant's load-balancing scheme [Valiant & Brebner,
// STOC'81]: each packet first routes minimally to a uniformly random
// intermediate switch, then minimally to its destination. It converts any
// admissible pattern into two uniform phases, halving peak throughput but
// bounding worst-case congestion — the paper's optimality reference on
// adversarial patterns such as Dimension Complement Reverse.
type ValiantAlg struct {
	min *MinimalAlg
	n   int32
}

// NewValiant builds Valiant routing on nw.
func NewValiant(nw *topo.Network) (*ValiantAlg, error) {
	min, err := NewMinimal(nw)
	if err != nil {
		return nil, err
	}
	return &ValiantAlg{min: min, n: int32(nw.H.Switches())}, nil
}

// Name implements Algorithm.
func (v *ValiantAlg) Name() string { return "Valiant" }

// Init implements Algorithm: draws the random intermediate switch.
func (v *ValiantAlg) Init(st *PacketState, src, dst int32, r *rng.Rand) {
	*st = PacketState{Src: src, Dst: dst, Intermediate: int32(r.Intn(int(v.n)))}
	if st.Intermediate == src {
		st.Phase = 1 // degenerate draw: go straight to the destination
	}
}

// PortCandidates implements Algorithm: minimal candidates toward the
// current phase's target.
func (v *ValiantAlg) PortCandidates(cur int32, st *PacketState, buf []PortCandidate) []PortCandidate {
	if st.Phase == 0 {
		if cur != st.Intermediate {
			return v.min.tab.minimalPorts(cur, st.Intermediate, buf)
		}
		st.Phase = 1
	}
	return v.min.tab.minimalPorts(cur, st.Dst, buf)
}

// Advance implements Algorithm.
func (v *ValiantAlg) Advance(cur int32, port int, st *PacketState) {
	st.Hops++
	if st.Phase == 0 && v.min.tab.LiveNeighbor(cur, port) == st.Intermediate {
		st.Phase = 1
	}
}

// MaxHops implements Algorithm: two minimal phases.
func (v *ValiantAlg) MaxHops(nw *topo.Network) int { return 2 * v.min.MaxHops(nw) }

// Rebuild implements Algorithm.
func (v *ValiantAlg) Rebuild(nw *topo.Network) error {
	if err := v.min.Rebuild(nw); err != nil {
		return err
	}
	v.n = int32(nw.H.Switches())
	return nil
}
