// Package escape implements SurePath's opportunistic Up/Down escape
// subnetwork (Section 3.2 of the paper).
//
// Construction: pick a root switch r and classify every live link (x,y) by
// the BFS levels d(x,r), d(y,r): links joining different levels are Up/Down
// ("black"), links joining equal levels are horizontal shortcuts ("red").
// The black links induce the Up/Down distance ud(x,t): the minimum number of
// black links on a path from x to t that first moves toward the root ("up"
// sub-path) and then away from it ("down" sub-path). There is always such a
// path through the root, so ud is finite on connected networks.
//
// Two legality rules are provided:
//
//   - RuleUDTable is the paper's literal mechanism: a hop x -> y is legal
//     exactly when it strictly reduces the Up/Down distance to the target,
//     ud(y,t) < ud(x,t). Reproducing it exposed a finding pinned by
//     TestPaperRuleHasCycles: the rule admits cycles in the escape channel
//     dependency graph (CheckDeadlockFree returns them), e.g. rings of
//     same-level shortcuts, so single-buffer deadlock freedom is not
//     guaranteed by the Dally-Seitz criterion.
//
//   - RulePhased (the default) is a refinement that keeps the opportunistic
//     shortcuts but is provably deadlock-free. Each escape packet is in an
//     Up phase and then a Down phase. In the Up phase it climbs black links
//     toward the root; at any point it may transition to the Down phase,
//     where it follows the "descent DAG": black Down links plus shortcuts
//     oriented by switch id. Because the descent DAG is acyclic (potential
//     (level, id) grows along every edge) and phase changes are one-way,
//     the escape channel dependency graph is acyclic for every topology,
//     fault set and root — CheckDeadlockFree verifies this in the tests.
//
// Both rules guarantee delivery: a legal hop exists at every switch other
// than the target, and a monotone potential (ud, or phase + table distance)
// strictly decreases, so escape routes are loop-free and bounded.
//
// Penalties follow the paper: Up hops 112 phits, Down hops 96, shortcuts
// 80/64/48 for Up/Down-distance reductions of 1/2/>=3, so minimal shortcut
// paths are preferred and the root is spared.
package escape

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/topo"
)

// Rule selects the escape-hop legality rule.
type Rule int

const (
	// RulePhased is the provably deadlock-free refinement (default).
	RulePhased Rule = iota
	// RuleUDTable is the paper's literal Up/Down-distance table rule.
	RuleUDTable
	// RuleTree disables the opportunistic shortcuts entirely: a pure
	// adaptive Up*/Down* escape over black links, the AutoNet-style
	// baseline the paper improves on. Provably deadlock-free like
	// RulePhased; exists for the shortcut ablation.
	RuleTree
)

// String names the rule.
func (r Rule) String() string {
	switch r {
	case RulePhased:
		return "phased"
	case RuleUDTable:
		return "udtable"
	case RuleTree:
		return "tree"
	}
	return fmt.Sprintf("Rule(%d)", int(r))
}

// Phases of a RulePhased escape packet, stored in
// routing.PacketState.EscPhase.
const (
	PhaseUp   int8 = 0 // climbing toward the root; may transition down
	PhaseDown int8 = 1 // committed to the descent DAG
)

// Subnetwork is the escape subnetwork built for one network and root.
// Rebuild it whenever the fault set changes.
type Subnetwork struct {
	nw    *topo.Network
	root  int32
	rule  Rule
	level []int32 // BFS distance from root over live links
	// tab holds cols distances per pair, interleaved: for RulePhased and
	// RuleTree tab[(t*n+x)*3 .. +2] = (ud, ddr, uddr) — ud the black-only
	// Up/Down distance x -> t, ddr the descent-DAG distance, uddr the best
	// up-prefix plus descent — so the candidate scan touches one cache
	// line per neighbor instead of one line in each of three n*n arrays;
	// the scan is the hottest loop of the simulator. RuleUDTable consults
	// ud alone and keeps cols = 1.
	tab  []topo.Dist
	cols int
	// nbr is the port scan table of the topo.Live the tables were built
	// from, and class[x*radix+p] what port p of x is to an escape packet
	// (linkNone .. linkShortcut): a property of the link alone, so the
	// scan reads it in place of two levels and skips a port no packet may
	// take before it touches the table. Both are replaced with the tables
	// on every fault, so they can never go stale.
	nbr   []int32
	class []uint8
	radix int
	n     int

	// Storage of the table build, kept so that a rebuild allocates nothing
	// that grows with n*n: the relations of Rebuild and their closures.
	links, up, down, into   topo.Adj
	below, cUD, cDDR, cUDDR topo.Closure
}

// What a port is to an escape packet, whatever its target.
const (
	linkNone uint8 = iota // failed, or a same-level link no legal hop crosses this way
	linkUp                // black, one level closer to the root
	linkDown              // black, one level farther
	// linkShortcut is a same-level link a hop may cross from this end:
	// toward the higher id under RulePhased, either way under RuleUDTable,
	// never under RuleTree.
	linkShortcut
)

// Build constructs the escape subnetwork of nw rooted at root using
// RulePhased. It fails if the live graph is disconnected, since an escape
// path must exist for every pair.
func Build(nw *topo.Network, root int32) (*Subnetwork, error) {
	return BuildWithRule(nw, root, RulePhased)
}

// BuildWithRule constructs the escape subnetwork with an explicit legality
// rule.
func BuildWithRule(nw *topo.Network, root int32, rule Rule) (*Subnetwork, error) {
	s := &Subnetwork{root: root, rule: rule}
	if err := s.Rebuild(nw, nw.LiveNeighbors()); err != nil {
		return nil, err
	}
	return s, nil
}

// Rebuild recomputes the subnetwork, same root and rule, for the current
// fault set of nw; lv is nw.LiveNeighbors(), which the caller shares with
// the other tables of the same rebuild. Tables and bitsets are reused in
// place, and a disconnected network is reported before anything is
// overwritten, so a failed Rebuild leaves the subnetwork on its previous
// tables.
//
// Every table comes out of one level-synchronous pass of topo.Closure. The
// sets are indexed by target t and hold sources x: bit x enters the set of
// t at level k exactly when the distance x -> t is k, so a level of set t
// is written along row t of the table. A legal route x -> t is an Up path
// followed by a descent. By its last hop it is therefore either a pure Up
// path — x lies below t, the closure of the Down links — or a shorter
// legal route to a predecessor z of t plus the hop z -> t:
//
//	below_k[t] = below_k-1[t] ∪ ⋃ below_k-1[z], z a Down neighbor of t
//	ud_k[t]    = ud_k-1[t] ∪ below_k[t] ∪ ⋃ ud_k-1[z], z -> t a Down link
//	ddr_k[t]   = ddr_k-1[t] ∪ ⋃ ddr_k-1[z], z -> t a descent edge
//	uddr_k[t]  = uddr_k-1[t] ∪ below_k[t] ∪ ⋃ uddr_k-1[z], likewise
//
// The four advance in lock-step, so no level of below is ever stored.
func (s *Subnetwork) Rebuild(nw *topo.Network, lv *topo.Live) error {
	n := lv.N
	if s.root < 0 || int(s.root) >= n {
		return fmt.Errorf("escape: root %d out of range [0,%d)", s.root, n)
	}
	if n > topo.MaxTableVertices {
		return fmt.Errorf("escape: %d switches exceed the %d a distance table covers", n, topo.MaxTableVertices)
	}
	s.links = lv.Adj(s.links, nil)
	level := make([]int32, n)
	if s.links.BFS(s.root, level, nil) != n {
		return fmt.Errorf("escape: network is disconnected (%d faults)", nw.Faults.Len())
	}
	s.nw, s.level, s.n = nw, level, n
	s.nbr, s.radix = lv.Nbr, lv.Radix
	s.up = lv.Adj(s.up, func(x, y int32) bool { return level[y] == level[x]-1 })
	s.down = lv.Adj(s.down, func(x, y int32) bool { return level[y] == level[x]+1 })

	s.below.Reset(n)
	s.cUD.Reset(n)
	s.cols = 1
	if s.rule != RuleUDTable {
		s.cols = 3
		s.into = lv.Adj(s.into, func(t, z int32) bool { return s.descentEdge(z, t) })
		s.cDDR.Reset(n)
		s.cUDDR.Reset(n)
	}
	s.class = s.class[:0]
	for x, lx := range level {
		for _, y := range lv.Nbr[x*lv.Radix : (x+1)*lv.Radix] {
			c := linkNone
			switch {
			case y < 0:
			case level[y] == lx-1:
				c = linkUp
			case level[y] == lx+1:
				c = linkDown
			case s.rule == RuleUDTable || s.descentEdge(int32(x), y):
				c = linkShortcut
			}
			s.class = append(s.class, c)
		}
	}
	cols := s.cols
	if cap(s.tab) < n*n*cols {
		s.tab = make([]topo.Dist, n*n*cols)
	}
	s.tab = s.tab[:n*n*cols]
	tab := s.tab
	if cols == 3 {
		// ud and uddr are finite for every pair of a connected network
		// (through the root), so the pass below writes all of them; ddr
		// is not.
		for i := 1; i < len(tab); i += 3 {
			tab[i] = topo.Far
		}
	}
	for x := 0; x < n; x++ {
		clear(tab[(x*n+x)*cols : (x*n+x+1)*cols])
	}
	for k, grew := topo.Dist(1), true; grew; k++ {
		grew = s.below.Step(s.down, nil, k, nil, 0)
		grew = s.cUD.Step(s.up, &s.below, k, tab, cols) || grew
		if cols == 3 {
			grew = s.cDDR.Step(s.into, nil, k, tab[1:], 3) || grew
			grew = s.cUDDR.Step(s.into, &s.below, k, tab[2:], 3) || grew
		}
	}
	return nil
}

// descentEdge reports whether the directed hop x -> y belongs to the
// descent DAG: black Down links (level increases) plus — except under
// RuleTree — shortcuts oriented from lower to higher switch id. The
// potential (level, id) strictly grows along every descent edge, making
// the DAG acyclic by construction.
func (s *Subnetwork) descentEdge(x, y int32) bool {
	lx, ly := s.level[x], s.level[y]
	if ly != lx {
		return ly == lx+1
	}
	return s.rule != RuleTree && x < y
}

// Root returns the root switch of the subnetwork.
func (s *Subnetwork) Root() int32 { return s.root }

// RuleUsed returns the legality rule the subnetwork was built with.
func (s *Subnetwork) RuleUsed() Rule { return s.rule }

// Level returns the BFS level (distance to the root) of switch x.
func (s *Subnetwork) Level(x int32) int32 { return s.level[x] }

// UpDownDist returns the black-only Up/Down distance from x to t.
func (s *Subnetwork) UpDownDist(x, t int32) int32 {
	return s.tab[(int(t)*s.n+int(x))*s.cols].Hops()
}

// DescentDist returns the descent-DAG distance from x to t under
// RulePhased, or Unreachable when x cannot reach t by descending.
func (s *Subnetwork) DescentDist(x, t int32) int32 {
	if s.cols != 3 {
		return topo.Unreachable
	}
	return s.tab[(int(t)*s.n+int(x))*3+1].Hops()
}

// IsHorizontal reports whether the live link (x,y) is a horizontal
// (shortcut, "red") link: both endpoints on the same level.
func (s *Subnetwork) IsHorizontal(x, y int32) bool { return s.level[x] == s.level[y] }

// RouteLen returns the length of the shortest legal escape route from x to
// t under RulePhased/RuleTree (the up-prefix plus descent distance). It
// measures the Section 7 "escape stretch": on HyperX escape routes contain
// near-minimal paths; on other topologies they are much longer than graph
// distance. Unavailable (Unreachable) under RuleUDTable.
func (s *Subnetwork) RouteLen(x, t int32) int32 {
	if s.cols != 3 {
		return topo.Unreachable
	}
	return s.tab[(int(t)*s.n+int(x))*3+2].Hops()
}

// shortcutPenalty grades a shortcut by its black Up/Down distance reduction,
// Section 3.2's 80/64/48 classes. Reductions below 1 clamp to the worst
// class (they can occur under RulePhased when a shortcut helps the descent
// DAG but not the black metric).
func shortcutPenalty(delta int32) int32 {
	switch {
	case delta >= 3:
		return routing.PenaltyShortcut3up
	case delta == 2:
		return routing.PenaltyShortcut2
	default:
		return routing.PenaltyShortcut1
	}
}

// Candidates appends the legal escape hops for a packet at switch cur in
// escape phase phase (PhaseUp for packets not yet in the escape subnetwork)
// targeting switch dst, with the paper's penalties. At every switch other
// than the target at least one candidate exists, and every hop strictly
// decreases a bounded potential, so escape delivery is guaranteed.
func (s *Subnetwork) Candidates(cur, dst int32, phase int8, buf []routing.PortCandidate) []routing.PortCandidate {
	if cur == dst {
		return buf
	}
	if s.rule == RuleUDTable {
		return s.udTableCandidates(cur, dst, buf)
	}
	// One interleaved row per target: pk[x*3..+2] = (ud, ddr, uddr).
	pk := s.tab[int(dst)*s.n*3:]
	cb := int(cur) * 3
	udCur, ddrCur, uddrCur := pk[cb], pk[cb+1], pk[cb+2]
	at := int(cur) * s.radix
	nbr := s.nbr[at : at+s.radix]
	for p, c := range s.class[at : at+s.radix] {
		if c == linkNone {
			continue
		}
		nb := int(nbr[p]) * 3
		if c == linkUp {
			if phase == PhaseUp && pk[nb+2] < uddrCur {
				buf = append(buf, routing.PortCandidate{Port: p, Penalty: routing.PenaltyEscapeUp})
			}
			continue
		}
		// A descent edge: a Down link or a shortcut toward the higher id.
		ddrN := pk[nb+1]
		if ddrN == topo.Far {
			continue
		}
		if phase == PhaseDown && ddrN >= ddrCur {
			continue // in the Down phase the descent distance must shrink
		}
		if c == linkDown {
			buf = append(buf, routing.PortCandidate{Port: p, Penalty: routing.PenaltyEscapeDown})
		} else {
			buf = append(buf, routing.PortCandidate{Port: p, Penalty: shortcutPenalty(int32(udCur) - int32(pk[nb]))})
		}
	}
	return buf
}

// udTableCandidates implements the paper's literal rule.
func (s *Subnetwork) udTableCandidates(cur, dst int32, buf []routing.PortCandidate) []routing.PortCandidate {
	row := s.tab[int(dst)*s.n:]
	udCur := int32(row[cur])
	at := int(cur) * s.radix
	nbr := s.nbr[at : at+s.radix]
	for p, c := range s.class[at : at+s.radix] {
		if c == linkNone {
			continue
		}
		delta := udCur - int32(row[nbr[p]])
		if delta <= 0 {
			continue
		}
		var penalty int32
		switch c {
		case linkUp:
			penalty = routing.PenaltyEscapeUp
		case linkDown:
			penalty = routing.PenaltyEscapeDown
		default:
			penalty = shortcutPenalty(delta)
		}
		buf = append(buf, routing.PortCandidate{Port: p, Penalty: penalty})
	}
	return buf
}

// NextPhase returns the escape phase after taking the hop through port p of
// cur: climbing black links keeps a packet in the Up phase, any descent
// edge commits it to the Down phase. Under RuleUDTable the phase is
// irrelevant and preserved.
func (s *Subnetwork) NextPhase(cur int32, p int, phase int8) int8 {
	if s.rule == RuleUDTable {
		return phase
	}
	if s.class[int(cur)*s.radix+p] == linkUp {
		return PhaseUp
	}
	return PhaseDown
}
