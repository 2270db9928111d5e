package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/topo"
)

// SweepRow is one point of a load sweep: one (mechanism, pattern, load)
// triple with the three metrics of the paper's Figures 4 and 5.
type SweepRow struct {
	Mechanism string
	Pattern   string
	Offered   float64
	Accepted  float64
	Latency   float64
	Jain      float64
	Escape    float64 // fraction of packets that used the escape subnetwork
	// Hole marks a point whose job the distributed backend quarantined
	// (it kept killing workers); its metrics are zero and rendered as an
	// explicit gap rather than silently plotted as zeros.
	Hole bool
}

// SweepConfig parameterizes a fault-free load sweep (Figures 4 and 5).
type SweepConfig struct {
	// H is the topology; servers per switch defaults to the first side.
	H *topo.HyperX
	// Mechanisms to evaluate; nil means MechanismNames().
	Mechanisms []string
	// Patterns to evaluate; nil means PatternNames for the topology,
	// following the paper (RPN only shown in 3D).
	Patterns []string
	// Loads to sweep; nil means 0.1..1.0 in steps of 0.1.
	Loads []float64
	// Budget sizes the runs; zero means DefaultBudget.
	Budget Budget
	// Seed drives all randomness.
	Seed uint64
	// Faults optionally injects a fault set (used by the fault figures).
	Faults *topo.FaultSet
	// VCs per port; 0 means the paper's 2n.
	VCs int
	// Root of the escape subnetwork for SurePath mechanisms.
	Root int32
}

func (c *SweepConfig) fill() {
	if c.Mechanisms == nil {
		c.Mechanisms = MechanismNames()
	}
	if c.Patterns == nil {
		c.Patterns = paperPatterns(c.H)
	}
	if c.Loads == nil {
		for l := 0.1; l <= 1.0001; l += 0.1 {
			c.Loads = append(c.Loads, l)
		}
	}
	if c.Budget == (Budget{}) {
		c.Budget = DefaultBudget()
	}
	if c.VCs == 0 {
		c.VCs = 2 * c.H.NDims()
	}
}

// paperPatterns returns the pattern set the paper shows for the topology:
// three patterns in 2D (Figure 4), four in 3D (Figure 5).
func paperPatterns(h *topo.HyperX) []string {
	ps := []string{"Uniform", "Random Server Permutation", "Dimension Complement Reverse"}
	if h.NDims() >= 3 {
		ps = append(ps, "Regular Permutation to Neighbour")
	}
	return ps
}

// SweepGrid enumerates the sweep: one spec and one row per (pattern,
// mechanism, load), in that order. Figure 4 is the sweep on Topology2D,
// Figure 5 on Topology3D (which adds the paper's new Regular Permutation to
// Neighbour pattern). A quarantined point becomes a Hole row; the rest of
// the sweep is unaffected.
func SweepGrid(cfg SweepConfig) Grid[SweepRow] {
	cfg.fill()
	per := cfg.H.Dims()[0]
	faults := cfg.Faults.Edges()
	shape := HyperXSpec(cfg.H)
	var jobs []JobSpec
	for _, patName := range cfg.Patterns {
		for _, mechName := range cfg.Mechanisms {
			for _, load := range cfg.Loads {
				jobs = append(jobs, JobSpec{
					Topo:        shape,
					Mechanism:   mechName,
					Pattern:     patName,
					VCs:         cfg.VCs,
					Root:        cfg.Root,
					Per:         per,
					Load:        load,
					Budget:      cfg.Budget,
					Faults:      faults,
					Seed:        JobSeed(cfg.Seed, len(jobs)),
					PatternSeed: cfg.Seed,
				})
			}
		}
	}
	return Grid[SweepRow]{Specs: jobs, Rows: func(results []*sim.Result, holes []*QuarantineError) ([]SweepRow, error) {
		rows := make([]SweepRow, len(jobs))
		for i, res := range results {
			rows[i] = SweepRow{
				Mechanism: jobs[i].Mechanism,
				Pattern:   jobs[i].Pattern,
				Offered:   jobs[i].Load,
			}
			if holes[i] != nil {
				rows[i].Hole = true
				continue
			}
			rows[i].Accepted = res.AcceptedLoad
			rows[i].Latency = res.AvgLatency
			rows[i].Jain = res.JainIndex
			rows[i].Escape = res.EscapeFraction
		}
		return rows, nil
	}}
}

// SaturationThroughput extracts, per (mechanism, pattern), the accepted
// load at the highest offered load of the sweep — the summary number the
// paper's bar charts report.
//
//hx:allow unusedexport test reference: the fold TestFig5RPNShape and the root Fig 4/5 benchmarks share across packages
func SaturationThroughput(rows []SweepRow) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	best := make(map[string]float64)
	for _, r := range rows {
		if r.Hole {
			continue
		}
		key := r.Pattern + "\x00" + r.Mechanism
		if r.Offered >= best[key] {
			best[key] = r.Offered
			if out[r.Pattern] == nil {
				out[r.Pattern] = make(map[string]float64)
			}
			out[r.Pattern][r.Mechanism] = r.Accepted
		}
	}
	return out
}

// RenderSweep formats sweep rows grouped by pattern, one line per
// (mechanism, load) with the three paper metrics.
func RenderSweep(title string, rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	lastPat, lastMech := "", ""
	for _, r := range rows {
		if r.Pattern != lastPat {
			fmt.Fprintf(&b, "== %s ==\n", r.Pattern)
			lastPat, lastMech = r.Pattern, ""
		}
		if r.Mechanism != lastMech {
			fmt.Fprintf(&b, "  %s\n", r.Mechanism)
			fmt.Fprintf(&b, "    %-8s %-9s %-9s %-7s %s\n", "offered", "accepted", "latency", "jain", "escape")
			lastMech = r.Mechanism
		}
		if r.Hole {
			fmt.Fprintf(&b, "    %-8.2f (quarantined — no data)\n", r.Offered)
			continue
		}
		fmt.Fprintf(&b, "    %-8.2f %-9.3f %-9.1f %-7.4f %.4f\n", r.Offered, r.Accepted, r.Latency, r.Jain, r.Escape)
	}
	return b.String()
}
