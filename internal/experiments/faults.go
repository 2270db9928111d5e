package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Fig6Row is one point of Figure 6: saturation throughput of a SurePath
// configuration after a number of random link failures.
type Fig6Row struct {
	Mechanism string
	Pattern   string
	Faults    int
	Accepted  float64
	Escape    float64
	Diameter  int32
}

// Fig6Config parameterizes the random-fault sweep.
type Fig6Config struct {
	H *topo.HyperX
	// MaxFaults and Step define the fault counts 0, Step, ..., MaxFaults
	// (paper: 0..100 step 10).
	MaxFaults int
	Step      int
	// Patterns; nil means the paper set for the topology.
	Patterns []string
	Budget   Budget
	Seed     uint64
	VCs      int // 0 means 4 (3 routing + 1 escape), the Section 6 setting
	Root     int32
}

// Fig6Grid enumerates Figure 6: OmniSP and PolSP throughput at full offered
// load under a growing sequence of random link failures. The same fault
// sequence (per seed) is shared by all mechanisms and prefixes, as in the
// paper. Tables are rebuilt per fault count. The paper's sequences keep the
// network connected; a prefix that disconnects it ends the enumeration, and
// Rows reports it as an error next to the rows of the prefixes before it.
func Fig6Grid(cfg Fig6Config) Grid[Fig6Row] {
	if cfg.MaxFaults == 0 {
		cfg.MaxFaults = 100
	}
	if cfg.Step == 0 {
		cfg.Step = 10
	}
	if cfg.Patterns == nil {
		cfg.Patterns = paperPatterns(cfg.H)
	}
	if cfg.Budget == (Budget{}) {
		cfg.Budget = DefaultBudget()
	}
	if cfg.VCs == 0 {
		cfg.VCs = 4
	}
	per := cfg.H.Dims()[0]
	seq := topo.RandomFaultSequence(cfg.H, cfg.Seed)
	prefixGraph := func(faults int) *topo.Graph {
		return topo.NewNetwork(cfg.H, topo.NewFaultSet(seq[:faults]...)).Graph()
	}
	shape := HyperXSpec(cfg.H)
	var jobs []JobSpec
	var rows []Fig6Row
	var disconnected error
	for faults := 0; faults <= cfg.MaxFaults && faults <= len(seq); faults += cfg.Step {
		// One BFS decides whether the prefix is simulated at all; its
		// all-pairs diameter is only a column and waits for Rows.
		if !prefixGraph(faults).Connected() {
			disconnected = fmt.Errorf("experiments: %d faults disconnected %s (seed %d)", faults, cfg.H, cfg.Seed)
			break
		}
		for _, patName := range cfg.Patterns {
			for _, mechName := range SurePathNames() {
				jobs = append(jobs, JobSpec{
					Label:     fmt.Sprintf("%s/%s with %d faults", mechName, patName, faults),
					Topo:      shape,
					Mechanism: mechName, Pattern: patName,
					VCs: cfg.VCs, Root: cfg.Root, Per: per,
					Load: 1.0, Budget: cfg.Budget,
					Faults:      seq[:faults],
					Seed:        JobSeed(cfg.Seed, len(jobs)),
					PatternSeed: cfg.Seed,
				})
				rows = append(rows, Fig6Row{Mechanism: mechName, Pattern: patName, Faults: faults})
			}
		}
	}
	return Grid[Fig6Row]{Specs: jobs, Rows: complete(jobs, func(results []*sim.Result) ([]Fig6Row, error) {
		out := append([]Fig6Row(nil), rows...)
		var diameter int32
		for i, res := range results {
			if i == 0 || out[i].Faults != out[i-1].Faults {
				diameter, _ = prefixGraph(out[i].Faults).Diameter()
			}
			out[i].Diameter = diameter
			out[i].Accepted = res.AcceptedLoad
			out[i].Escape = res.EscapeFraction
		}
		return out, disconnected
	})}
}

// RenderFig6 formats the fault sweep grouped by pattern and mechanism.
func RenderFig6(title string, rows []Fig6Row) string {
	ordered := append([]Fig6Row(nil), rows...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Pattern != ordered[j].Pattern {
			return ordered[i].Pattern < ordered[j].Pattern
		}
		if ordered[i].Mechanism != ordered[j].Mechanism {
			return ordered[i].Mechanism < ordered[j].Mechanism
		}
		return ordered[i].Faults < ordered[j].Faults
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	last := ""
	for _, r := range ordered {
		key := r.Pattern + "/" + r.Mechanism
		if key != last {
			fmt.Fprintf(&b, "== %s / %s ==\n", r.Pattern, r.Mechanism)
			fmt.Fprintf(&b, "  %-7s %-9s %-8s %s\n", "faults", "accepted", "escape", "diameter")
			last = key
		}
		fmt.Fprintf(&b, "  %-7d %-9.3f %-8.4f %d\n", r.Faults, r.Accepted, r.Escape, r.Diameter)
	}
	return b.String()
}

// ShapeRow is one bar of Figures 8 and 9: throughput of a SurePath
// configuration under a structured fault shape, with the healthy-network
// reference mark.
type ShapeRow struct {
	Mechanism string
	Pattern   string
	Shape     string
	Faults    int
	Accepted  float64
	Healthy   float64 // fault-free reference (the top marks in the figures)
	Escape    float64
}

// ShapesConfig parameterizes the structured-fault experiments.
type ShapesConfig struct {
	H        *topo.HyperX
	Patterns []string
	Budget   Budget
	Seed     uint64
	VCs      int   // 0 means 4, the Section 6 setting
	Root     int32 // the shapes are centred here, as in the paper
}

// ShapesGrid enumerates Figures 8 (2D) and 9 (3D): OmniSP and PolSP at full
// offered load under the Row, Subplane/Subcube and Cross/Star fault
// shapes, all centred on the escape subnetwork root to stress SurePath as
// hard as possible.
func ShapesGrid(cfg ShapesConfig) Grid[ShapeRow] {
	if cfg.Patterns == nil {
		cfg.Patterns = paperPatterns(cfg.H)
	}
	if cfg.Budget == (Budget{}) {
		cfg.Budget = DefaultBudget()
	}
	if cfg.VCs == 0 {
		cfg.VCs = 4
	}
	per := cfg.H.Dims()[0]
	kinds := []topo.ShapeKind{topo.ShapeRow, topo.ShapeSubBlock, topo.ShapeCross}
	shapeEdges := make([][]topo.Edge, len(kinds))
	for i, kind := range kinds {
		edges, err := topo.PaperShape(cfg.H, cfg.Root, kind)
		if err != nil {
			return failedGrid[ShapeRow](err)
		}
		shapeEdges[i] = edges
	}
	// One job per (pattern, mechanism, healthy-reference + shape): the
	// healthy run is a job like any other and its result feeds every shape
	// row of its (pattern, mechanism) group.
	var jobs []JobSpec
	type rowRef struct {
		row     ShapeRow
		job     int // job carrying the shape result
		healthy int // job carrying the fault-free reference
	}
	var refs []rowRef
	for _, patName := range cfg.Patterns {
		for _, mechName := range SurePathNames() {
			base := JobSpec{
				Topo: HyperXSpec(cfg.H), Mechanism: mechName, Pattern: patName,
				VCs: cfg.VCs, Root: cfg.Root, Per: per,
				Load: 1.0, Budget: cfg.Budget, PatternSeed: cfg.Seed,
			}
			healthy := base
			healthy.Label = fmt.Sprintf("healthy %s/%s", mechName, patName)
			healthy.Seed = JobSeed(cfg.Seed, len(jobs))
			healthyJob := len(jobs)
			jobs = append(jobs, healthy)
			for ki, kind := range kinds {
				shaped := base
				shaped.Label = fmt.Sprintf("%s/%s under %s", mechName, patName, kind.PaperName(cfg.H.NDims()))
				shaped.Faults = shapeEdges[ki]
				shaped.Seed = JobSeed(cfg.Seed, len(jobs))
				refs = append(refs, rowRef{
					row: ShapeRow{
						Mechanism: mechName, Pattern: patName,
						Shape: kind.PaperName(cfg.H.NDims()), Faults: len(shapeEdges[ki]),
					},
					job:     len(jobs),
					healthy: healthyJob,
				})
				jobs = append(jobs, shaped)
			}
		}
	}
	return Grid[ShapeRow]{Specs: jobs, Rows: complete(jobs, func(results []*sim.Result) ([]ShapeRow, error) {
		rows := make([]ShapeRow, len(refs))
		for i, ref := range refs {
			rows[i] = ref.row
			rows[i].Accepted = results[ref.job].AcceptedLoad
			rows[i].Escape = results[ref.job].EscapeFraction
			rows[i].Healthy = results[ref.healthy].AcceptedLoad
		}
		return rows, nil
	})}
}

// RenderShapes formats the shape experiment as the paper's bar chart rows.
func RenderShapes(title string, rows []ShapeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	last := ""
	for _, r := range rows {
		if r.Pattern != last {
			fmt.Fprintf(&b, "== %s ==\n", r.Pattern)
			fmt.Fprintf(&b, "  %-8s %-10s %-7s %-9s %-9s %-7s %s\n",
				"mech", "shape", "faults", "accepted", "healthy", "drop%", "escape")
			last = r.Pattern
		}
		drop := 0.0
		if r.Healthy > 0 {
			drop = 100 * (r.Healthy - r.Accepted) / r.Healthy
		}
		fmt.Fprintf(&b, "  %-8s %-10s %-7d %-9.3f %-9.3f %-7.1f %.4f\n",
			r.Mechanism, r.Shape, r.Faults, r.Accepted, r.Healthy, drop, r.Escape)
	}
	return b.String()
}
