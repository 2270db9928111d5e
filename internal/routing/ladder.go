package routing

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/topo"
)

// Ladder turns an Algorithm into a Mechanism with the hop-count VC
// management of Günther / Merlin-Schweitzer, the deadlock avoidance the
// paper's baseline mechanisms use (Table 4): a packet that has traversed i
// switch-to-switch links travels in VC i (step 1) or in VC pair {2i, 2i+1}
// (step 2, the Minimal configuration). Hops beyond the ladder clamp to the
// last step; a fault-free network never reaches the clamp when vcs >=
// step * Algorithm.MaxHops, which is exactly the sizing the paper criticises
// under failures.
type Ladder struct {
	alg  Algorithm
	vcs  int
	step int
	name string
}

// NewLadder wraps alg with a step-1 or step-2 ladder over vcs virtual
// channels.
func NewLadder(alg Algorithm, vcs, step int, name string) (*Ladder, error) {
	if step != 1 && step != 2 {
		return nil, fmt.Errorf("routing: ladder step must be 1 or 2, got %d", step)
	}
	if vcs < step {
		return nil, fmt.Errorf("routing: ladder needs at least %d VCs, got %d", step, vcs)
	}
	if name == "" {
		name = alg.Name()
	}
	return &Ladder{alg: alg, vcs: vcs, step: step, name: name}, nil
}

// Name implements Mechanism.
func (l *Ladder) Name() string { return l.name }

// VCs implements Mechanism.
func (l *Ladder) VCs() int { return l.vcs }

// Init implements Mechanism.
func (l *Ladder) Init(st *PacketState, src, dst int32, r *rng.Rand) {
	l.alg.Init(st, src, dst, r)
}

// InjectVCs implements Mechanism: hop-0 VCs.
func (l *Ladder) InjectVCs(_ *PacketState, buf []int) []int {
	buf = append(buf, 0)
	if l.step == 2 {
		buf = append(buf, 1)
	}
	return buf
}

// step VC base for the packet's current hop count.
func (l *Ladder) vcBase(hops int32) int {
	base := int(hops) * l.step
	if max := l.vcs - l.step; base > max {
		base = max
	}
	return base
}

// Candidates implements Mechanism.
func (l *Ladder) Candidates(cur int32, st *PacketState, _ int, scr *Scratch, buf []Candidate) []Candidate {
	ports := l.alg.PortCandidates(cur, st, scr.Ports())
	scr.KeepPorts(ports)
	base := l.vcBase(st.Hops)
	// Scan order, and within a port the lower VC first: the engine draws one
	// tie-break per candidate in this order, so it is part of a Result.
	for _, pc := range ports {
		buf = append(buf, Candidate{Port: pc.Port, VC: base, Penalty: pc.Penalty})
		if l.step == 2 {
			buf = append(buf, Candidate{Port: pc.Port, VC: base + 1, Penalty: pc.Penalty})
		}
	}
	return buf
}

// Advance implements Mechanism.
func (l *Ladder) Advance(cur int32, port, _ int, st *PacketState) {
	l.alg.Advance(cur, port, st)
}

// Rebuild implements Mechanism.
func (l *Ladder) Rebuild(nw *topo.Network) error { return l.alg.Rebuild(nw) }

// OmniLadder is the OmniWAR VC management of Table 4: over 2n VCs, minimal
// hops climb the first n VCs and deroutes climb the last n, tracking the
// packet's minimal-hop and deroute counts separately.
type OmniLadder struct {
	alg   *OmniAlg
	ndims int
}

// NewOmniWAR builds the OmniWAR mechanism (Omnidimensional routes with the
// minimal/deroute split ladder) on nw.
func NewOmniWAR(nw *topo.Network) (*OmniLadder, error) {
	alg, err := NewOmni(nw)
	if err != nil {
		return nil, err
	}
	return &OmniLadder{alg: alg, ndims: alg.h.NDims()}, nil
}

// Name implements Mechanism.
func (o *OmniLadder) Name() string { return "OmniWAR" }

// VCs implements Mechanism: n minimal plus n deroute VCs.
func (o *OmniLadder) VCs() int { return 2 * o.ndims }

// Init implements Mechanism.
func (o *OmniLadder) Init(st *PacketState, src, dst int32, r *rng.Rand) {
	o.alg.Init(st, src, dst, r)
}

// InjectVCs implements Mechanism.
func (o *OmniLadder) InjectVCs(_ *PacketState, buf []int) []int {
	return append(buf, 0)
}

// Candidates implements Mechanism.
func (o *OmniLadder) Candidates(cur int32, st *PacketState, _ int, scr *Scratch, buf []Candidate) []Candidate {
	ports := o.alg.PortCandidates(cur, st, scr.Ports())
	scr.KeepPorts(ports)
	minVC := clampInt(int(st.MinHops), o.ndims-1)
	derVC := o.ndims + clampInt(int(st.Deroutes), o.ndims-1)
	for _, pc := range ports {
		vc := minVC
		if pc.Deroute {
			vc = derVC
		}
		buf = append(buf, Candidate{Port: pc.Port, VC: vc, Penalty: pc.Penalty})
	}
	return buf
}

// Advance implements Mechanism.
func (o *OmniLadder) Advance(cur int32, port, _ int, st *PacketState) {
	o.alg.Advance(cur, port, st)
}

// Rebuild implements Mechanism.
func (o *OmniLadder) Rebuild(nw *topo.Network) error {
	if err := o.alg.Rebuild(nw); err != nil {
		return err
	}
	o.ndims = o.alg.h.NDims()
	return nil
}

func clampInt(v, max int) int {
	if v > max {
		return max
	}
	return v
}
