package routing

import (
	"repro/internal/rng"
	"repro/internal/topo"
)

// MinimalAlg routes along shortest paths of the live graph, fully
// adaptively: every alive neighbor strictly closer to the destination is a
// candidate. Tables are rebuilt by BFS on failures, so Minimal keeps working
// in any connected faulty network — the baseline resilience the paper
// compares against.
type MinimalAlg struct {
	tab Tables
}

// NewMinimal builds Minimal routing on nw.
func NewMinimal(nw *topo.Network) (*MinimalAlg, error) {
	m := &MinimalAlg{}
	if err := m.Rebuild(nw); err != nil {
		return nil, err
	}
	return m, nil
}

// Name implements Algorithm.
func (m *MinimalAlg) Name() string { return "Minimal" }

// Init implements Algorithm.
func (m *MinimalAlg) Init(st *PacketState, src, dst int32, _ *rng.Rand) {
	*st = PacketState{Src: src, Dst: dst}
}

// PortCandidates implements Algorithm: all alive ports decreasing the
// distance to the destination, penalty 0.
func (m *MinimalAlg) PortCandidates(cur int32, st *PacketState, buf []PortCandidate) []PortCandidate {
	return m.tab.minimalPorts(cur, st.Dst, buf)
}

// Advance implements Algorithm.
func (m *MinimalAlg) Advance(_ int32, _ int, st *PacketState) { st.Hops++ }

// MaxHops implements Algorithm: minimal routes never exceed the diameter.
func (m *MinimalAlg) MaxHops(*topo.Network) int { return int(m.tab.Diameter()) }

// Rebuild implements Algorithm.
func (m *MinimalAlg) Rebuild(nw *topo.Network) error { return m.tab.Rebuild(nw) }

// Tables exposes the distance tables for reuse by wrappers (Valiant).
func (m *MinimalAlg) Tables() *Tables { return &m.tab }
