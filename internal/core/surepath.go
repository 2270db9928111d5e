// Package core implements SurePath, the paper's contribution: a
// fault-tolerant routing mechanism for HyperX networks that pairs the routes
// of an adaptive routing algorithm (Omnidimensional or Polarized) with an
// opportunistic Up/Down escape subnetwork used for deadlock avoidance.
//
// The virtual channels of every port split into two sets (Section 3):
//
//   - CRout (VCs 0..R-1): carries the bulk of the load with the base
//     algorithm's fully adaptive routes.
//   - CEsc (the last VC): the escape subnetwork. Every packet, in either
//     set, may always request an escape hop (rule 2), with high penalties so
//     escape is a last resort; packets in CEsc can never move back to CRout.
//
// A hop is "forced" when the base algorithm offers no candidate — a dead
// link, an exhausted deroute budget — and only escape hops remain. Because
// escape hops strictly reduce the Up/Down distance to the destination and
// the escape channel dependency graph is acyclic (verified by
// escape.CheckDeadlockFree in the tests), every packet is delivered while a
// path exists, whatever the fault set. Tables rebuild with one breadth-first
// pass per failure, the same cost as Minimal routing.
package core

import (
	"fmt"

	"repro/internal/escape"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topo"
)

// BaseRoutes selects the routing algorithm that feeds SurePath.
type BaseRoutes int

// The two base routings evaluated in the paper.
const (
	OmniRoutes      BaseRoutes = iota // OmniSP: Omnidimensional routes
	PolarizedRoutes                   // PolSP: Polarized routes
)

// SurePath is a routing.Mechanism implementing the paper's Section 3.
type SurePath struct {
	alg        routing.Algorithm
	esc        *escape.Subnetwork
	root       int32
	rule       escape.Rule
	routingVCs int // |CRout|; the escape VC is routingVCs (the last one)
	name       string
}

// Option customizes SurePath construction.
type Option func(*SurePath)

// WithRoot pins the escape subnetwork root. By default switch 0 is used;
// Section 6 notes that picking a root with many faulty links is the worst
// case, which the fault-shape experiments exploit deliberately.
func WithRoot(root int32) Option {
	return func(s *SurePath) { s.root = root }
}

// WithEscapeRule selects the escape legality rule; the default is
// escape.RulePhased, the provably deadlock-free refinement.
func WithEscapeRule(rule escape.Rule) Option {
	return func(s *SurePath) { s.rule = rule }
}

// New builds a SurePath mechanism on nw using the given base routes and
// totalVCs virtual channels (totalVCs-1 routing VCs plus 1 escape VC).
// The paper runs 2n VCs for parity with the ladder mechanisms in Section 5
// and only 4 (3+1) in the fault studies of Section 6; 2 (1+1) is the
// functional minimum.
func New(nw *topo.Network, base BaseRoutes, totalVCs int, opts ...Option) (*SurePath, error) {
	if totalVCs < 2 {
		return nil, fmt.Errorf("core: SurePath needs >= 2 VCs (1 routing + 1 escape), got %d", totalVCs)
	}
	var (
		alg  routing.Algorithm
		name string
		err  error
	)
	switch base {
	case OmniRoutes:
		alg, err = routing.NewOmni(nw)
		name = "OmniSP"
	case PolarizedRoutes:
		alg, err = routing.NewPolarized(nw)
		name = "PolSP"
	default:
		return nil, fmt.Errorf("core: unknown base routes %d", base)
	}
	if err != nil {
		return nil, err
	}
	s := &SurePath{alg: alg, routingVCs: totalVCs - 1, name: name}
	for _, o := range opts {
		o(s)
	}
	s.esc, err = escape.BuildWithRule(nw, s.root, s.rule)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewWithAlgorithm builds SurePath around a caller-provided base algorithm,
// for ablations and extensions beyond the paper's two configurations.
func NewWithAlgorithm(nw *topo.Network, alg routing.Algorithm, totalVCs int, opts ...Option) (*SurePath, error) {
	if totalVCs < 2 {
		return nil, fmt.Errorf("core: SurePath needs >= 2 VCs, got %d", totalVCs)
	}
	s := &SurePath{alg: alg, routingVCs: totalVCs - 1, name: alg.Name() + "SP"}
	for _, o := range opts {
		o(s)
	}
	var err error
	s.esc, err = escape.BuildWithRule(nw, s.root, s.rule)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Name implements routing.Mechanism ("OmniSP" / "PolSP").
func (s *SurePath) Name() string { return s.name }

// VCs implements routing.Mechanism.
func (s *SurePath) VCs() int { return s.routingVCs + 1 }

// EscapeVC returns the VC index of the escape subnetwork (the last VC).
func (s *SurePath) EscapeVC() int { return s.routingVCs }

// Escape exposes the escape subnetwork (diagnostics and tests).
func (s *SurePath) Escape() *escape.Subnetwork { return s.esc }

// Root returns the escape subnetwork root.
func (s *SurePath) Root() int32 { return s.root }

// Init implements routing.Mechanism.
func (s *SurePath) Init(st *routing.PacketState, src, dst int32, r *rng.Rand) {
	s.alg.Init(st, src, dst, r)
}

// InjectVCs implements routing.Mechanism: fresh packets enter CRout.
func (s *SurePath) InjectVCs(_ *routing.PacketState, buf []int) []int {
	return append(buf, 0)
}

// Candidates implements routing.Mechanism, encoding the transition rules of
// Section 3: packets in CRout see the base algorithm's candidates on a
// capped hop ladder plus all escape candidates; packets in CEsc see escape
// candidates only.
func (s *SurePath) Candidates(cur int32, st *routing.PacketState, _ int, scr *routing.Scratch, buf []Candidate) []Candidate {
	if !st.InEscape {
		ports := s.alg.PortCandidates(cur, st, scr.Ports())
		scr.KeepPorts(ports)
		vc := int(st.Hops)
		if vc >= s.routingVCs {
			vc = s.routingVCs - 1
		}
		for _, pc := range ports {
			buf = append(buf, Candidate{Port: pc.Port, VC: vc, Penalty: pc.Penalty})
		}
	}
	ports := s.esc.Candidates(cur, st.Dst, st.EscPhase, scr.Ports())
	scr.KeepPorts(ports)
	for _, pc := range ports {
		buf = append(buf, Candidate{Port: pc.Port, VC: s.routingVCs, Penalty: pc.Penalty})
	}
	return buf
}

// Candidate aliases routing.Candidate for readability of the public API.
type Candidate = routing.Candidate

// Advance implements routing.Mechanism. Entering the escape VC commits the
// packet to the escape subnetwork for the rest of its route.
func (s *SurePath) Advance(cur int32, port, vc int, st *routing.PacketState) {
	if vc == s.routingVCs {
		st.EscPhase = s.esc.NextPhase(cur, port, st.EscPhase)
		st.InEscape = true
		st.Hops++
		return
	}
	s.alg.Advance(cur, port, st)
}

// Rebuild implements routing.Mechanism: both the base algorithm's tables
// and the escape subnetwork, same root, are recomputed in place. Either
// half refuses a disconnected network before it overwrites anything, so a
// failed Rebuild leaves the mechanism routing on its previous tables.
func (s *SurePath) Rebuild(nw *topo.Network) error {
	if err := s.alg.Rebuild(nw); err != nil {
		return err
	}
	return s.esc.Rebuild(nw, liveOf(s.alg, nw))
}

// liveOf returns the flattened live topology of nw for the escape rebuild:
// the one the base algorithm has just rebuilt its own port scan on — with
// its distances (Polarized, Minimal) or alone (Omnidimensional) — so a
// fault flattens the network once, or a fresh one under any other base.
func liveOf(alg routing.Algorithm, nw *topo.Network) *topo.Live {
	switch a := alg.(type) {
	case interface{ Tables() *routing.Tables }:
		return a.Tables().Live()
	case interface{ Live() *topo.Live }:
		return a.Live()
	}
	return nw.LiveNeighbors()
}

var _ routing.Mechanism = (*SurePath)(nil)
