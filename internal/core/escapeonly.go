package core

import (
	"fmt"

	"repro/internal/escape"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topo"
)

// EscapeOnly routes every packet through the escape subnetwork alone: an
// adaptive Up*/Down* mechanism with opportunistic shortcuts and no base
// routing. It is the AutoNet-style configuration the paper's motivation
// warns about ("effectively replacing a deadlock into the marginal
// throughput of a tree") and serves as the floor the SurePath combination
// is measured against. A single virtual channel suffices.
type EscapeOnly struct {
	esc *escape.Subnetwork
	vcs int
}

// NewEscapeOnly builds the escape-only mechanism on nw rooted at root.
func NewEscapeOnly(nw *topo.Network, root int32, rule escape.Rule, vcs int) (*EscapeOnly, error) {
	if vcs < 1 {
		return nil, fmt.Errorf("core: EscapeOnly needs >= 1 VC, got %d", vcs)
	}
	esc, err := escape.BuildWithRule(nw, root, rule)
	if err != nil {
		return nil, err
	}
	return &EscapeOnly{esc: esc, vcs: vcs}, nil
}

// Name implements routing.Mechanism.
func (e *EscapeOnly) Name() string { return "EscapeOnly" }

// VCs implements routing.Mechanism.
func (e *EscapeOnly) VCs() int { return e.vcs }

// Escape exposes the subnetwork.
func (e *EscapeOnly) Escape() *escape.Subnetwork { return e.esc }

// Init implements routing.Mechanism.
func (e *EscapeOnly) Init(st *routing.PacketState, src, dst int32, _ *rng.Rand) {
	*st = routing.PacketState{Src: src, Dst: dst, InEscape: true}
}

// InjectVCs implements routing.Mechanism.
func (e *EscapeOnly) InjectVCs(_ *routing.PacketState, buf []int) []int {
	return append(buf, 0)
}

// Candidates implements routing.Mechanism: escape hops on VC 0. Additional
// VCs, if configured, stay as spare bandwidth for the allocator (entries
// are duplicated across them so deep switches can spread load).
func (e *EscapeOnly) Candidates(cur int32, st *routing.PacketState, _ int, scr *routing.Scratch, buf []Candidate) []Candidate {
	ports := e.esc.Candidates(cur, st.Dst, st.EscPhase, scr.Ports())
	scr.KeepPorts(ports)
	for _, pc := range ports {
		for vc := 0; vc < e.vcs; vc++ {
			buf = append(buf, Candidate{Port: pc.Port, VC: vc, Penalty: pc.Penalty})
		}
	}
	return buf
}

// Advance implements routing.Mechanism.
func (e *EscapeOnly) Advance(cur int32, port, _ int, st *routing.PacketState) {
	st.EscPhase = e.esc.NextPhase(cur, port, st.EscPhase)
	st.Hops++
}

// Rebuild implements routing.Mechanism.
func (e *EscapeOnly) Rebuild(nw *topo.Network) error {
	return e.esc.Rebuild(nw, nw.LiveNeighbors())
}

var _ routing.Mechanism = (*EscapeOnly)(nil)
