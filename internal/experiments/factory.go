// Package experiments reproduces every table and figure of the paper's
// evaluation: the topology characterizations (Table 3, Figure 1), the
// fault-free load sweeps (Figures 4 and 5), the random-fault sweeps
// (Figure 6), the structured fault shapes (Figures 7-9) and the
// completion-time study (Figure 10). A simulating figure is a Grid — its
// specs plus the fold that makes rows of their results — and Run is the one
// place grids execute; the cmd/experiments CLI, the benchmarks and the
// integration tests all go through it.
package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// adaptiveMinSwitches is the network size below which the adaptive policy
// stays sequential: the sharded engine's per-cycle phase barriers cost
// more than they save on tiny switch arrays.
const adaptiveMinSwitches = 64

// runWorkersFor resolves the intra-run worker count for one job simulating
// the given number of switches: r.RunWorkers when fixed, or, under the
// adaptive policy, the CPUs per concurrently running job of r.Workers
// (capped at the switch count; sequential when the pool already saturates
// the CPUs or the network is too small to amortize the phase barriers).
// Purely a wall-clock knob — the sharded engine is bit-identical for every
// return value — which is what makes adaptive safe as the unset-flag
// default.
func (r Runner) runWorkersFor(switches int) int {
	if r.RunWorkers >= 0 {
		return r.RunWorkers
	}
	free := runtime.GOMAXPROCS(0) / DefaultWorkers(r.Workers)
	if free <= 1 || switches < adaptiveMinSwitches {
		return 0
	}
	return min(free, switches)
}

// Scale selects between laptop-size and paper-size topologies.
type Scale int

const (
	// ScaleSmall runs 8x8 (2D) and 4x4x4 (3D) networks: the same topology
	// families at a size where a full sweep fits in seconds. Rankings and
	// crossovers match the paper; absolute saturation points shift a little.
	ScaleSmall Scale = iota
	// ScaleFull runs the paper's 16x16 and 8x8x8 networks (Table 3).
	ScaleFull
)

// String names the scale.
func (s Scale) String() string {
	if s == ScaleFull {
		return "full"
	}
	return "small"
}

// Topology2D returns the 2D HyperX for the scale. Servers per switch is the
// side k, as in the paper.
func Topology2D(s Scale) *topo.HyperX {
	if s == ScaleFull {
		return topo.MustHyperX(16, 16)
	}
	return topo.MustHyperX(8, 8)
}

// Topology3D returns the 3D HyperX for the scale.
func Topology3D(s Scale) *topo.HyperX {
	if s == ScaleFull {
		return topo.MustHyperX(8, 8, 8)
	}
	return topo.MustHyperX(4, 4, 4)
}

// MechanismNames lists the six mechanisms of Table 4 in the paper's order.
func MechanismNames() []string {
	return []string{"Minimal", "Valiant", "OmniWAR", "Polarized", "OmniSP", "PolSP"}
}

// SurePathNames lists the two SurePath configurations.
func SurePathNames() []string { return []string{"OmniSP", "PolSP"} }

// BuildMechanism constructs a named mechanism on nw with vcs virtual
// channels (use 2n for Table 4 parity; SurePath also accepts fewer). root
// pins the escape subnetwork root for the SurePath configurations and is
// ignored by the ladder mechanisms.
func BuildMechanism(name string, nw *topo.Network, vcs int, root int32) (routing.Mechanism, error) {
	switch name {
	case "Minimal":
		alg, err := routing.NewMinimal(nw)
		if err != nil {
			return nil, err
		}
		return routing.NewLadder(alg, vcs, 2, "Minimal")
	case "Valiant":
		alg, err := routing.NewValiant(nw)
		if err != nil {
			return nil, err
		}
		return routing.NewLadder(alg, vcs, 1, "Valiant")
	case "OmniWAR":
		return routing.NewOmniWAR(nw)
	case "Polarized":
		alg, err := routing.NewPolarized(nw)
		if err != nil {
			return nil, err
		}
		return routing.NewLadder(alg, vcs, 1, "Polarized")
	case "DOR":
		alg, err := routing.NewDOR(nw)
		if err != nil {
			return nil, err
		}
		return routing.NewLadder(alg, vcs, 1, "DOR")
	case "DAL":
		alg, err := routing.NewDAL(nw)
		if err != nil {
			return nil, err
		}
		return routing.NewLadder(alg, vcs, 1, "DAL")
	case "EscapeOnly":
		return core.NewEscapeOnly(nw, root, 0, 1)
	case "OmniSP":
		return core.New(nw, core.OmniRoutes, vcs, core.WithRoot(root))
	case "PolSP":
		return core.New(nw, core.PolarizedRoutes, vcs, core.WithRoot(root))
	}
	return nil, fmt.Errorf("experiments: unknown mechanism %q", name)
}

// PatternNames lists the traffic patterns of Section 4. RPN is only
// defined for even sides (the paper evaluates it in 3D).
func PatternNames(ndims int) []string {
	names := []string{"Uniform", "Random Server Permutation", "Dimension Complement Reverse"}
	if ndims >= 2 {
		names = append(names, "Regular Permutation to Neighbour")
	}
	return names
}

// BuildPattern constructs a named pattern for the given server layout.
// Short aliases: "RSP", "DCR", "RPN".
func BuildPattern(name string, sv traffic.Servers, seed uint64) (traffic.Pattern, error) {
	switch name {
	case "Uniform":
		return traffic.NewUniform(sv.Count())
	case "Random Server Permutation", "RSP":
		return traffic.NewRandomServerPermutation(sv.Count(), seed)
	case "Dimension Complement Reverse", "DCR":
		return traffic.NewDimensionComplementReverse(sv)
	case "Regular Permutation to Neighbour", "RPN":
		return traffic.NewRegularPermutationToNeighbour(sv)
	}
	return nil, fmt.Errorf("experiments: unknown pattern %q", name)
}

// Budget sizes the simulation windows. Tests and benches use the default;
// -full CLI runs use Paper().
type Budget struct {
	Warmup  int64
	Measure int64
}

// DefaultBudget is sized for laptop-scale sweeps.
func DefaultBudget() Budget { return Budget{Warmup: 1500, Measure: 2500} }

// PaperBudget is sized for stable full-size measurements.
func PaperBudget() Budget { return Budget{Warmup: 10000, Measure: 20000} }
