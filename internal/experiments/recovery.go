package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
)

// RecoveryResult reports the live-failure experiment: an extension beyond
// the paper's static fault sets that exercises its operational claim —
// failures strike a running network, tables rebuild by BFS, and SurePath
// keeps delivering.
type RecoveryResult struct {
	Mechanism    string
	FaultCycles  []int64
	Accepted     float64
	LostPackets  int64
	Series       []metrics.SeriesPoint
	FinalFaults  int
	PreFaultAvg  float64 // mean accepted load before the first fault
	PostFaultAvg float64 // mean accepted load after the last fault
}

// RecoveryConfig parameterizes the live-failure experiment.
type RecoveryConfig struct {
	H *topo.HyperX
	// Load is the offered load (default 0.6: high but unsaturated, so
	// recovery is visible).
	Load float64
	// Faults is the number of link failures injected, evenly spaced through
	// the middle half of the run (default 10).
	Faults int
	// Cycles is the total run length (default 12000).
	Cycles int64
	Seed   uint64
	VCs    int // 0 means 4
	Root   int32
}

// RecoveryGrid enumerates the live-failure experiment for OmniSP and PolSP.
func RecoveryGrid(cfg RecoveryConfig) Grid[RecoveryResult] {
	if cfg.Load == 0 {
		cfg.Load = 0.6
	}
	if cfg.Faults == 0 {
		cfg.Faults = 10
	}
	if cfg.Cycles == 0 {
		cfg.Cycles = 12000
	}
	if cfg.VCs == 0 {
		cfg.VCs = 4
	}
	per := cfg.H.Dims()[0]
	seq := topo.RandomFaultSequence(cfg.H, cfg.Seed)
	if cfg.Faults > len(seq) {
		return failedGrid[RecoveryResult](fmt.Errorf("experiments: %d faults exceed %d links", cfg.Faults, len(seq)))
	}
	// Spread the failures across the middle half of the run.
	start, span := cfg.Cycles/4, cfg.Cycles/2
	var schedule []sim.FaultEvent
	var faultCycles []int64
	for i := 0; i < cfg.Faults; i++ {
		cycle := start + span*int64(i)/int64(cfg.Faults)
		schedule = append(schedule, sim.FaultEvent{Cycle: cycle, Edge: seq[i]})
		faultCycles = append(faultCycles, cycle)
	}
	bucket := cfg.Cycles / 24
	if bucket < 1 {
		bucket = 1
	}
	mechs := SurePathNames()
	jobs := make([]JobSpec, len(mechs))
	for i, mechName := range mechs {
		jobs[i] = JobSpec{
			Label: fmt.Sprintf("%s recovery", mechName),
			Topo:  HyperXSpec(cfg.H), Mechanism: mechName, Pattern: "Uniform",
			VCs: cfg.VCs, Root: cfg.Root, Per: per,
			Load:          cfg.Load,
			Budget:        Budget{Warmup: 0, Measure: cfg.Cycles},
			SeriesBucket:  bucket,
			FaultSchedule: schedule,
			Seed:          JobSeed(cfg.Seed, i),
			PatternSeed:   cfg.Seed,
		}
	}
	return Grid[RecoveryResult]{Specs: jobs, Rows: complete(jobs, func(raw []*sim.Result) ([]RecoveryResult, error) {
		results := make([]RecoveryResult, len(mechs))
		for i, res := range raw {
			rr := RecoveryResult{
				Mechanism:   mechs[i],
				FaultCycles: faultCycles,
				Accepted:    res.AcceptedLoad,
				LostPackets: res.LostPackets,
				Series:      res.Series,
				FinalFaults: int(res.FaultsApplied),
			}
			var pre, post []float64
			for _, p := range res.Series {
				if p.Cycle <= start {
					pre = append(pre, p.Accepted)
				}
				if p.Cycle > start+span {
					post = append(post, p.Accepted)
				}
			}
			rr.PreFaultAvg = metrics.Mean(pre)
			rr.PostFaultAvg = metrics.Mean(post)
			results[i] = rr
		}
		return results, nil
	})}
}

// RenderRecovery formats the live-failure timelines.
func RenderRecovery(title string, results []RecoveryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, r := range results {
		fmt.Fprintf(&b, "== %s: %d live failures, %d packets lost, pre %.3f -> post %.3f ==\n",
			r.Mechanism, r.FinalFaults, r.LostPackets, r.PreFaultAvg, r.PostFaultAvg)
		fi := 0
		for _, p := range r.Series {
			marks := ""
			for fi < len(r.FaultCycles) && r.FaultCycles[fi] < p.Cycle {
				marks += "*"
				fi++
			}
			fmt.Fprintf(&b, "  t=%-8d accepted=%.3f %s\n", p.Cycle, p.Accepted, marks)
		}
	}
	return b.String()
}
