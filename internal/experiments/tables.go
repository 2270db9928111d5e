package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Table3Row reproduces one column of the paper's Table 3: topological
// parameters of the evaluated networks.
type Table3Row struct {
	Topology    string
	Switches    int
	Radix       int // switch-to-switch ports plus server ports
	ServersPer  int
	Servers     int
	Links       int
	Diameter    int32
	AvgDistance float64
}

// Table3 computes the topological parameters of h with the paper's
// convention of k servers per switch.
func Table3(h *topo.HyperX) Table3Row {
	per := h.Dims()[0]
	g := h.Graph()
	diam, _ := g.Diameter()
	return Table3Row{
		Topology:    h.String(),
		Switches:    h.Switches(),
		Radix:       h.SwitchRadix() + per,
		ServersPer:  per,
		Servers:     h.Switches() * per,
		Links:       h.Links(),
		Diameter:    diam,
		AvgDistance: g.AvgDistance(true),
	}
}

// Table3Rows computes Table 3 rows for the given topologies, one parallel
// job per topology (the all-pairs BFS dominates; workers 0 means one per
// CPU). Rows come back in argument order.
func Table3Rows(workers int, hs ...*topo.HyperX) []Table3Row {
	rows, _ := RunJobs(workers, len(hs), func(i int) (Table3Row, error) {
		return Table3(hs[i]), nil
	})
	return rows
}

// RenderTable3Rows formats precomputed Table 3 rows, so callers that also
// export them pay for the all-pairs BFS once.
func RenderTable3Rows(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: topological parameters\n")
	fmt.Fprintf(&b, "  %-14s %-9s %-6s %-9s %-8s %-6s %-9s %s\n",
		"topology", "switches", "radix", "srv/sw", "servers", "links", "diameter", "avg dist")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %-9d %-6d %-9d %-8d %-6d %-9d %.3f\n",
			r.Topology, r.Switches, r.Radix, r.ServersPer, r.Servers, r.Links, r.Diameter, r.AvgDistance)
	}
	return b.String()
}

// Table4Row describes one routing mechanism configuration of the paper's
// Table 4.
type Table4Row struct {
	Mechanism    string
	Algorithm    string
	VCManagement string
	VCUse        string
	VCsRequired  string
}

// Table4 returns the paper's mechanism configuration matrix.
func Table4() []Table4Row {
	return []Table4Row{
		{"Minimal", "Shortest path", "Ladder", "2 VCs for each step", "n"},
		{"Valiant", "Shortest path in each phase", "Ladder", "1 VC for each step", "2n"},
		{"OmniWAR", "Omnidimensional", "Ladder", "n VCs minimal and n VCs for deroutes", "2n"},
		{"Polarized", "Polarized", "Ladder", "1 VC per step", "2n"},
		{"OmniSP", "Omnidimensional", "SurePath", "2n-1 VCs routing + 1 VC Up/Down", "2"},
		{"PolSP", "Polarized", "SurePath", "2n-1 VCs routing + 1 VC Up/Down", "2"},
	}
}

// RenderTable4 formats Table 4.
func RenderTable4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: routing mechanisms evaluated\n")
	fmt.Fprintf(&b, "  %-10s %-28s %-10s %-38s %s\n", "mechanism", "algorithm", "VC mgmt", "use of 2n VCs", "VCs required")
	for _, r := range Table4() {
		fmt.Fprintf(&b, "  %-10s %-28s %-10s %-38s %s\n", r.Mechanism, r.Algorithm, r.VCManagement, r.VCUse, r.VCsRequired)
	}
	return b.String()
}

// RenderTable2 formats the simulation parameters (Table 2), which are the
// sim package defaults.
func RenderTable2() string {
	c := sim.DefaultConfig()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: simulation parameters\n")
	fmt.Fprintf(&b, "  Input buffer size        %d packets\n", c.InputBufPkts)
	fmt.Fprintf(&b, "  Output buffer size       %d packets\n", c.OutputBufPkts)
	fmt.Fprintf(&b, "  Flow control             virtual cut-through\n")
	fmt.Fprintf(&b, "  Packet length            %d phits\n", c.PacketPhits)
	fmt.Fprintf(&b, "  Link latency             %d cycle\n", c.LinkLatency)
	fmt.Fprintf(&b, "  Crossbar latency         %d cycle\n", c.XbarLatency)
	fmt.Fprintf(&b, "  Crossbar speedup         %d\n", c.XbarSpeedup)
	fmt.Fprintf(&b, "  Injection queue          %d packets\n", c.InjQueuePkts)
	fmt.Fprintf(&b, "  Penalty weight           %.1f\n", c.PenaltyWeight)
	return b.String()
}

// RenderFig7 lists the structured fault shapes of Figure 7 with their link
// counts on the given topology.
func RenderFig7(h *topo.HyperX, root int32) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: fault configurations on %s, root switch %d\n", h, root)
	for _, kind := range []topo.ShapeKind{topo.ShapeRow, topo.ShapeSubBlock, topo.ShapeCross} {
		edges, err := topo.PaperShape(h, root, kind)
		if err != nil {
			return "", err
		}
		nw := topo.NewNetwork(h, topo.NewFaultSet(edges...))
		fmt.Fprintf(&b, "  %-10s %3d links removed, root keeps %d of %d links\n",
			kind.PaperName(h.NDims()), len(edges), nw.AliveDegree(root), h.SwitchRadix())
	}
	return b.String(), nil
}
