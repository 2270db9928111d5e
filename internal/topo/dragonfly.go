package topo

import "fmt"

// Dragonfly is the canonical Dragonfly topology [Kim et al., ISCA'08] with
// the palmtree global-link arrangement: g = a*h + 1 groups of a switches;
// within a group the switches form a complete graph, and every switch owns
// h global ports. Switch ids are group*a + index; ports 0..a-2 are local
// (to the other group members, in index order), ports a-1..a-2+h global.
//
// The paper's Section 7 names Dragonfly as the topology where a Up/Down
// escape subnetwork would not contain minimal routes; the Section 7
// experiment measures exactly that.
type Dragonfly struct {
	a, h, groups int
	n            int32
}

// NewDragonfly constructs the balanced Dragonfly with a switches per group
// and h global ports per switch (g = a*h + 1 groups).
func NewDragonfly(a, h int) (*Dragonfly, error) {
	if a < 2 || h < 1 {
		return nil, fmt.Errorf("topo: dragonfly needs a >= 2 switches/group and h >= 1 global ports, got a=%d h=%d", a, h)
	}
	// Each factor first, so the product below cannot overflow.
	if a > MaxSwitches || h > MaxSwitches || int64(a)*(int64(a)*int64(h)+1) > MaxSwitches {
		return nil, fmt.Errorf("topo: dragonfly a=%d h=%d has more than %d switches", a, h, MaxSwitches)
	}
	g := a*h + 1
	d := &Dragonfly{a: a, h: h, groups: g, n: int32(a * g)}
	return d, nil
}

// MustDragonfly is NewDragonfly that panics on error.
func MustDragonfly(a, h int) *Dragonfly {
	d, err := NewDragonfly(a, h)
	if err != nil {
		panic(err)
	}
	return d
}

// GroupSize returns a, the switches per group.
func (d *Dragonfly) GroupSize() int { return d.a }

// Groups returns the number of groups.
func (d *Dragonfly) Groups() int { return d.groups }

// Switches implements Switched.
func (d *Dragonfly) Switches() int { return int(d.n) }

// SwitchRadix implements Switched: a-1 local plus h global ports.
func (d *Dragonfly) SwitchRadix() int { return d.a - 1 + d.h }

// group and index of a switch.
func (d *Dragonfly) group(x int32) int { return int(x) / d.a }
func (d *Dragonfly) index(x int32) int { return int(x) % d.a }

// globalPeer resolves the palmtree arrangement: the j-th global link of
// group g1 (j = index*h + port offset, j in [0, a*h)) lands in group
// (g1 + j + 1) mod groups, at that group's global slot a*h - 1 - j.
func (d *Dragonfly) globalPeer(g1, j int) (g2, j2 int) {
	g2 = (g1 + j + 1) % d.groups
	j2 = d.a*d.h - 1 - j
	return g2, j2
}

// PortNeighbor implements Switched.
func (d *Dragonfly) PortNeighbor(x int32, p int) int32 {
	g, idx := d.group(x), d.index(x)
	if p < d.a-1 {
		// Local port: other group members in index order, skipping self.
		peer := p
		if peer >= idx {
			peer++
		}
		return int32(g*d.a + peer)
	}
	j := idx*d.h + (p - (d.a - 1))
	g2, j2 := d.globalPeer(g, j)
	return int32(g2*d.a + j2/d.h)
}

// PortTo implements Switched.
func (d *Dragonfly) PortTo(x, y int32) int {
	if x == y {
		return -1
	}
	gx, gy := d.group(x), d.group(y)
	if gx == gy {
		peer := d.index(y)
		slot := peer
		if peer > d.index(x) {
			slot = peer - 1
		}
		return slot
	}
	// Global: check x's h global ports.
	for p := d.a - 1; p < d.SwitchRadix(); p++ {
		if d.PortNeighbor(x, p) == y {
			return p
		}
	}
	return -1
}

// Edges implements Switched.
func (d *Dragonfly) Edges() []Edge {
	set := make(map[Edge]struct{})
	for x := int32(0); x < d.n; x++ {
		for p := 0; p < d.SwitchRadix(); p++ {
			set[NewEdge(x, d.PortNeighbor(x, p))] = struct{}{}
		}
	}
	edges := make([]Edge, 0, len(set))
	for e := range set {
		edges = append(edges, e)
	}
	return SortEdges(edges)
}

// String implements Switched.
func (d *Dragonfly) String() string {
	return fmt.Sprintf("Dragonfly a=%d h=%d (%d groups)", d.a, d.h, d.groups)
}
