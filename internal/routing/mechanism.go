// Package routing implements the routing algorithms evaluated by the paper
// (Minimal, Valiant, DOR, Omnidimensional/OmniWAR, Polarized) and the ladder
// virtual-channel managements of its Table 4.
//
// The package separates two concerns:
//
//   - An Algorithm produces the legal next-hop ports for a packet, with the
//     allocation penalties of Section 3, but says nothing about virtual
//     channels. SurePath (package core) consumes Algorithms directly.
//   - A Mechanism is an Algorithm paired with a VC management; it produces
//     (port, VC, penalty) candidates the simulator can request. Ladder
//     wrappers turn any Algorithm into the paper's baseline mechanisms.
package routing

import (
	"repro/internal/rng"
	"repro/internal/topo"
)

// Penalty values in phits from Section 3 of the paper.
const (
	PenaltyMinimal     = 0   // minimal candidates (Omnidimensional, Minimal)
	PenaltyDeroute     = 64  // Omnidimensional deroutes
	PenaltyPolarized2  = 0   // Polarized delta-mu = 2
	PenaltyPolarized1  = 64  // Polarized delta-mu = 1
	PenaltyPolarized0  = 80  // Polarized delta-mu = 0
	PenaltyEscapeUp    = 112 // escape subnetwork Up hops
	PenaltyEscapeDown  = 96  // escape subnetwork Down hops
	PenaltyShortcut1   = 80  // shortcut reducing Up/Down distance by 1
	PenaltyShortcut2   = 64  // ... by 2
	PenaltyShortcut3up = 48  // ... by 3 or more
)

// PacketState is the per-packet routing state carried in packet headers.
// Algorithms read and update only the fields they own; the simulator treats
// the struct as opaque.
type PacketState struct {
	Src, Dst     int32 // source and destination switch
	Hops         int32 // switch-to-switch links traversed so far
	Deroutes     int32 // Omnidimensional/DAL: non-minimal hops consumed
	MinHops      int32 // Omnidimensional/DAL: minimal hops taken (deroute-VC ladder)
	DerouteMask  int32 // DAL: dimensions already derouted (bit per dimension)
	Intermediate int32 // Valiant: intermediate switch
	Phase        int8  // Valiant: 0 = toward intermediate, 1 = toward destination
	CloserToSrc  bool  // Polarized: header bit d(c,s) < d(c,t)
	InEscape     bool  // SurePath: the packet has entered the escape subnetwork
	EscPhase     int8  // SurePath: escape phase (escape.PhaseUp / PhaseDown)
}

// PortCandidate is a legal next hop proposed by an Algorithm: a
// switch-to-switch port of the current switch and its allocation penalty.
type PortCandidate struct {
	Port    int
	Penalty int32
	Deroute bool // true for Omnidimensional non-minimal hops
}

// Candidate is a legal (port, VC) request proposed by a Mechanism.
type Candidate struct {
	Port    int
	VC      int
	Penalty int32
}

// Scratch holds the reusable buffers a Mechanism may need while computing
// Candidates. Mechanisms are immutable during a run (tables only change
// through Rebuild, which the engine serializes), so concurrent Candidates
// calls are safe as long as every goroutine passes its own Scratch — this is
// what lets the sharded engine compute routes for switch domains in
// parallel. A nil Scratch is valid and degrades to per-call allocation,
// which keeps ad-hoc and test call sites simple.
type Scratch struct {
	ports []PortCandidate
}

// Ports returns the zero-length reusable PortCandidate buffer.
func (s *Scratch) Ports() []PortCandidate {
	if s == nil {
		return nil
	}
	return s.ports[:0]
}

// KeepPorts stores a grown buffer back into the scratch so the next Ports
// call reuses its capacity. A buffer that did not grow is the one the
// scratch already holds, and is not written again: scratches live on the
// heap, and the store would cost a write barrier per Candidates call.
func (s *Scratch) KeepPorts(buf []PortCandidate) {
	if s != nil && cap(buf) != cap(s.ports) {
		s.ports = buf
	}
}

// Algorithm yields raw port candidates for the head packet of a queue.
//
// The per-hop methods (PortCandidates, Advance) read only the tables of the
// last Rebuild — the flattened topo.Live row of the switch, narrow
// topo.Dist rows, coordinates — never the network or its fault set. So the
// ports they return are the ones alive as of the last Rebuild: a caller
// that mutates Network.Faults rebuilds before it routes again, as the
// engine does (both at the same inter-cycle point). No algorithm of this
// package keeps a *topo.Network, so none can probe it per hop.
type Algorithm interface {
	// Name identifies the algorithm in results ("Polarized", ...).
	Name() string
	// Init prepares st for a packet injected at src toward dst.
	Init(st *PacketState, src, dst int32, r *rng.Rand)
	// PortCandidates appends the legal next hops at switch cur to buf. An
	// empty result at cur != dst means the algorithm is stuck (under
	// SurePath the packet then takes a forced escape hop).
	PortCandidates(cur int32, st *PacketState, buf []PortCandidate) []PortCandidate
	// Advance updates st after the packet crossed the link at port of cur,
	// a port PortCandidates offered since the last Rebuild.
	Advance(cur int32, port int, st *PacketState)
	// MaxHops bounds route length on the given network, used to size VC
	// ladders.
	MaxHops(nw *topo.Network) int
	// Rebuild recomputes any tables for a changed fault set. The network's
	// live graph must be connected.
	Rebuild(nw *topo.Network) error
}

// Mechanism is a complete routing mechanism: algorithm plus VC management.
type Mechanism interface {
	// Name identifies the mechanism in results ("OmniSP", "Minimal", ...).
	Name() string
	// VCs returns the number of virtual channels per port the mechanism
	// requires.
	VCs() int
	// Init prepares st for a packet injected at src toward dst.
	Init(st *PacketState, src, dst int32, r *rng.Rand)
	// InjectVCs appends the VCs a fresh packet may enter at its source
	// switch.
	InjectVCs(st *PacketState, buf []int) []int
	// Candidates appends the legal (port, VC) requests for a packet at
	// switch cur currently held in VC curVC. scr provides the caller-owned
	// scratch buffers (nil allocates); implementations must keep all other
	// state read-only so concurrent calls with distinct scratches are safe.
	// The result is a pure function of cur, st, curVC and the tables of the
	// last Rebuild: the same list in the same order on every call until the
	// next Rebuild, with no randomness drawn. The simulator relies on it to
	// cache the list of a head packet that stays blocked.
	Candidates(cur int32, st *PacketState, curVC int, scr *Scratch, buf []Candidate) []Candidate
	// Advance updates st after the packet crossed the link at port of cur,
	// entering the next switch in VC vc.
	Advance(cur int32, port, vc int, st *PacketState)
	// Rebuild recomputes tables after the fault set changed.
	Rebuild(nw *topo.Network) error
}
