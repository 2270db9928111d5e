package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Fig10Result is one completion-time curve of Figure 10: the throughput
// time series and completion time of a burst of Regular Permutation to
// Neighbour traffic under the Star fault configuration.
type Fig10Result struct {
	Mechanism      string
	CompletionTime int64
	PeakAccepted   float64
	Series         []metrics.SeriesPoint
}

// Fig10Config parameterizes the completion-time experiment.
type Fig10Config struct {
	H *topo.HyperX
	// BurstPhits per server (paper: 8000 phits = 500 packets). Scaled-down
	// runs use less.
	BurstPhits int
	// SeriesBucket in cycles for the reported curve.
	SeriesBucket int64
	Seed         uint64
	VCs          int // 0 means 4
	Root         int32
}

// Fig10Grid enumerates Figure 10: each server generates a fixed burst of
// Regular Permutation to Neighbour traffic on a network with the Star
// fault configuration centred on the escape root; the run ends when all
// packets complete. The paper's finding: OmniSP shows higher peak
// throughput but a far larger completion time than PolSP (2.8x on the
// paper's testbed) because only one of the root's three live links serves
// its in-cast traffic.
func Fig10Grid(cfg Fig10Config) Grid[Fig10Result] {
	if cfg.BurstPhits == 0 {
		cfg.BurstPhits = 8000
	}
	if cfg.SeriesBucket == 0 {
		cfg.SeriesBucket = 2000
	}
	if cfg.VCs == 0 {
		cfg.VCs = 4
	}
	per := cfg.H.Dims()[0]
	edges, err := topo.PaperShape(cfg.H, cfg.Root, topo.ShapeCross) // Star in 3D
	if err != nil {
		return failedGrid[Fig10Result](err)
	}
	burstPkts := cfg.BurstPhits / sim.DefaultConfig().PacketPhits
	mechs := SurePathNames()
	jobs := make([]JobSpec, len(mechs))
	for i, mechName := range mechs {
		jobs[i] = JobSpec{
			Label: fmt.Sprintf("%s burst", mechName),
			Topo:  HyperXSpec(cfg.H), Mechanism: mechName,
			Pattern: "Regular Permutation to Neighbour",
			VCs:     cfg.VCs, Root: cfg.Root, Per: per,
			BurstPackets: burstPkts, SeriesBucket: cfg.SeriesBucket,
			Faults:      edges,
			Seed:        JobSeed(cfg.Seed, i),
			PatternSeed: cfg.Seed,
		}
	}
	return Grid[Fig10Result]{Specs: jobs, Rows: complete(jobs, func(raw []*sim.Result) ([]Fig10Result, error) {
		results := make([]Fig10Result, len(mechs))
		for i, res := range raw {
			peak := 0.0
			for _, p := range res.Series {
				if p.Accepted > peak {
					peak = p.Accepted
				}
			}
			results[i] = Fig10Result{
				Mechanism:      mechs[i],
				CompletionTime: res.CompletionTime,
				PeakAccepted:   peak,
				Series:         res.Series,
			}
		}
		return results, nil
	})}
}

// RenderFig10 formats the completion-time curves.
func RenderFig10(title string, results []Fig10Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, r := range results {
		fmt.Fprintf(&b, "== %s: completion %d cycles, peak accepted %.3f ==\n",
			r.Mechanism, r.CompletionTime, r.PeakAccepted)
		for _, p := range r.Series {
			fmt.Fprintf(&b, "  t=%-8d accepted=%.3f\n", p.Cycle, p.Accepted)
		}
	}
	if len(results) == 2 {
		a, z := results[0], results[1]
		if a.CompletionTime > 0 && z.CompletionTime > 0 {
			fmt.Fprintf(&b, "completion-time ratio %s/%s = %.2fx\n",
				a.Mechanism, z.Mechanism, float64(a.CompletionTime)/float64(z.CompletionTime))
		}
	}
	return b.String()
}
