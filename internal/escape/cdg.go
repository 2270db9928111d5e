package escape

// Channel-dependency-graph analysis for the escape subnetwork.
//
// The escape subnetwork must be deadlock-free with a single escape buffer
// per port. The classical criterion (Dally & Seitz / Duato) is that the
// channel dependency graph — channels as nodes, an edge when some packet can
// hold one channel while requesting the next — is acyclic. CheckDeadlockFree
// builds that graph exhaustively over all (channel, channel, target)
// triples and searches for cycles.
//
// Under RulePhased acyclicity is a theorem (up channels ordered by
// descending tail level precede descent channels ordered by the descent
// DAG's topological order) and the check validates the implementation.
// Under RuleUDTable — the paper's literal rule — the check *finds* cycles,
// e.g. rings of same-level shortcuts; see TestPaperRuleHasCycles.

import "repro/internal/topo"

// channelID numbers the directed live links: channel (x, port).
func (s *Subnetwork) channelID(x int32, port int) int32 {
	return x*int32(s.nw.H.SwitchRadix()) + int32(port)
}

// holdNext reports whether a packet targeting t can hold channel (x -> y)
// and then request channel (y -> z), under the subnetwork's rule.
func (s *Subnetwork) holdNext(x, y, z, t int32) bool {
	if t == y {
		return false // the packet ejects at y and requests nothing
	}
	n := s.n
	if s.rule == RuleUDTable {
		row := s.tab[int(t)*n:]
		return row[y] < row[x] && row[z] < row[y]
	}
	row := s.tab[int(t)*n*3:]
	ddr := func(v int32) topo.Dist { return row[v*3+1] }
	uddr := func(v int32) topo.Dist { return row[v*3+2] }
	upIn := s.level[y] == s.level[x]-1
	upOut := s.level[z] == s.level[y]-1
	if upIn {
		// Holder is in the Up phase after an up hop.
		if uddr(y) >= uddr(x) {
			return false // entry hop was not legal
		}
		if upOut {
			return uddr(z) < uddr(y)
		}
		return s.descentEdge(y, z) && ddr(z) < topo.Far
	}
	// Holder crossed a descent edge: it is in the Down phase and can only
	// continue descending. Entry legality (transition or Down hop) is
	// over-approximated by "ddr(y,t) finite".
	if !s.descentEdge(x, y) || upOut {
		return false
	}
	return ddr(y) < topo.Far && s.descentEdge(y, z) && ddr(z) < ddr(y)
}

// usable reports whether channel (x -> y) can carry any escape packet at
// all under the rule (against-orientation shortcuts cannot, under
// RulePhased).
func (s *Subnetwork) usable(x, y int32) bool {
	if s.rule == RuleUDTable {
		return true
	}
	return s.level[y] == s.level[x]-1 || s.descentEdge(x, y)
}

// CheckDeadlockFree reports whether the escape channel dependency graph is
// acyclic. When it is not, the second result names a cycle as the sequence
// of switches traversed by the cyclic channels.
func (s *Subnetwork) CheckDeadlockFree() (bool, []int32) {
	h := s.nw.H
	n := int32(s.n)
	radix := h.SwitchRadix()
	numCh := s.n * radix

	adj := make([][]int32, numCh)
	for y := int32(0); y < n; y++ {
		type half struct {
			ch   int32
			peer int32
		}
		var in, out []half
		for p := 0; p < radix; p++ {
			if !s.nw.PortAlive(y, p) {
				continue
			}
			z := h.PortNeighbor(y, p)
			if s.usable(y, z) {
				out = append(out, half{s.channelID(y, p), z})
			}
			if s.usable(z, y) {
				in = append(in, half{s.channelID(z, h.PortTo(z, y)), z})
			}
		}
		for _, ic := range in {
			for _, oc := range out {
				for t := int32(0); t < n; t++ {
					if s.holdNext(ic.peer, y, oc.peer, t) {
						adj[ic.ch] = append(adj[ic.ch], oc.ch)
						break
					}
				}
			}
		}
	}

	// Iterative DFS cycle detection (white/gray/black). A gray node reached
	// during expansion is an ancestor on the push path, so the reported
	// cycle is real.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, numCh)
	parent := make([]int32, numCh)
	for i := range parent {
		parent[i] = -1
	}
	for start := 0; start < numCh; start++ {
		if color[start] != white {
			continue
		}
		stack := []int32{int32(start)}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			if color[c] == gray {
				color[c] = black
				stack = stack[:len(stack)-1]
				continue
			}
			if color[c] == black {
				stack = stack[:len(stack)-1]
				continue
			}
			color[c] = gray
			for _, next := range adj[c] {
				switch color[next] {
				case white:
					parent[next] = c
					stack = append(stack, next)
				case gray:
					cycle := []int32{next / int32(radix)}
					for at := c; at >= 0; at = parent[at] {
						cycle = append(cycle, at/int32(radix))
						if at == next {
							break
						}
					}
					return false, cycle
				}
			}
		}
	}
	return true, nil
}
