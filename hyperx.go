// Package hyperx is the public API of the SurePath reproduction: HyperX
// (Hamming graph) topologies, the routing mechanisms of the paper
// "Achieving High-Performance Fault-Tolerant Routing in HyperX
// Interconnection Networks" (Camarero, Cano, Martínez, Beivide — SC 2024),
// fault models, synthetic traffic patterns, and a cycle-level
// virtual-cut-through simulator to evaluate them.
//
// Quick start:
//
//	h, _ := hyperx.NewTopology(8, 8)
//	net := hyperx.NewNetwork(h, nil)
//	mech, _ := hyperx.NewMechanism("PolSP", net, 4, 0)
//	pat, _ := hyperx.NewPattern("Uniform", h, 8, 1)
//	res, _ := hyperx.Run(hyperx.RunOptions{
//	    Net: net, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
//	    Load: 0.5, WarmupCycles: 2000, MeasureCycles: 4000, Seed: 1,
//	})
//	fmt.Println(res.AcceptedLoad, res.AvgLatency, res.JainIndex)
//
// A grid of points is data — JobSpecs — plus the Runner that executes it:
//
//	cache, _ := hyperx.OpenResultCache(dir)
//	r := hyperx.Runner{Workers: 4, Cache: cache}
//	results, _ := hyperx.RunSpecs(r, specs) // a second call is all cache hits
//
// The experiment drivers that regenerate every table and figure of the
// paper live in internal/experiments and are reached through the
// cmd/experiments binary; this package exports none of them.
package hyperx

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Topology is an n-dimensional HyperX (Hamming graph).
type Topology = topo.HyperX

// Network is a topology plus a set of failed links.
type Network = topo.Network

// FaultSet is a set of failed links.
type FaultSet = topo.FaultSet

// Edge is an undirected link between two switches.
type Edge = topo.Edge

// Graph is an immutable undirected graph with BFS-based metrics.
type Graph = topo.Graph

// ShapeKind names a structured fault configuration (Row, SubBlock, Cross).
type ShapeKind = topo.ShapeKind

// The structured fault shapes of the paper's Section 6.
const (
	ShapeRow      = topo.ShapeRow
	ShapeSubBlock = topo.ShapeSubBlock
	ShapeCross    = topo.ShapeCross
)

// Mechanism is a routing mechanism: a routing algorithm paired with a VC
// management.
type Mechanism = routing.Mechanism

// Algorithm is a raw routing algorithm (next-hop candidates without VC
// policy), the form SurePath consumes.
type Algorithm = routing.Algorithm

// SurePath is the paper's fault-tolerant routing mechanism.
type SurePath = core.SurePath

// EscapeRule selects the escape subnetwork legality rule.
type EscapeRule = escape.Rule

// Escape rules: RulePhased (provably deadlock-free refinement, default),
// RuleUDTable (the paper's literal table rule, whose channel dependency
// graph has cycles — see internal/escape's TestPaperRuleHasCycles), and
// RuleTree (the shortcut-free AutoNet-style baseline used by the
// ablation).
const (
	RulePhased  = escape.RulePhased
	RuleUDTable = escape.RuleUDTable
	RuleTree    = escape.RuleTree
)

// Pattern generates message destinations.
type Pattern = traffic.Pattern

// Servers describes the server numbering of a network.
type Servers = traffic.Servers

// RunOptions configures one simulation run.
type RunOptions = sim.RunOptions

// Result carries the paper's metrics for one run.
type Result = sim.Result

// Config carries the microarchitectural parameters of the paper's Table 2.
type Config = sim.Config

// MemStats is the engine's memory accounting: arena bytes at construction
// (see MeasureEngineMemory and the CLIs' -mem-stats flag).
type MemStats = sim.MemStats

// MeasureEngineMemory builds the engine for o and returns its arena
// accounting without running anything.
func MeasureEngineMemory(o RunOptions) (*MemStats, error) { return sim.MeasureEngineMemory(o) }

// SeriesPoint is one bucket of a throughput time series.
type SeriesPoint = metrics.SeriesPoint

// Scale selects between laptop-size and paper-size experiment topologies.
type Scale = experiments.Scale

// Experiment scales.
const (
	ScaleSmall = experiments.ScaleSmall
	ScaleFull  = experiments.ScaleFull
)

// Budget sizes experiment simulation windows.
type Budget = experiments.Budget

// Switched is the abstract switch-level topology; table-driven mechanisms
// (Minimal, Valiant, Polarized, SurePath) and the simulator run on any
// implementation, enabling the paper's Section 7 cross-topology study.
type Switched = topo.Switched

// Torus is a k-ary n-cube topology (Section 7 comparison substrate).
type Torus = topo.Torus

// Dragonfly is the canonical Dragonfly topology (Section 7 comparison
// substrate).
type Dragonfly = topo.Dragonfly

// NewTopology constructs a HyperX with the given sides (each >= 2).
func NewTopology(dims ...int) (*Topology, error) { return topo.NewHyperX(dims...) }

// NewTorus constructs a k-ary n-cube with the given sides (each >= 3).
func NewTorus(dims ...int) (*Torus, error) { return topo.NewTorus(dims...) }

// NewDragonfly constructs the balanced Dragonfly with a switches per group
// and h global ports per switch.
func NewDragonfly(a, h int) (*Dragonfly, error) { return topo.NewDragonfly(a, h) }

// NewNetwork pairs any switched topology with a fault set (nil means
// fault-free).
func NewNetwork(t Switched, faults *FaultSet) *Network { return topo.NewNetwork(t, faults) }

// NewFaultSet builds a fault set from failed links.
func NewFaultSet(edges ...Edge) *FaultSet { return topo.NewFaultSet(edges...) }

// RandomFaultSequence returns a seeded random ordering of all links; its
// prefixes model growing sets of isolated failures.
func RandomFaultSequence(h *Topology, seed uint64) []Edge {
	return topo.RandomFaultSequence(h, seed)
}

// PaperShape builds a structured fault shape (Row, Subplane/Subcube,
// Cross/Star) centred on root, scaled to the topology.
func PaperShape(h *Topology, root int32, kind ShapeKind) ([]Edge, error) {
	return topo.PaperShape(h, root, kind)
}

// NewMechanism constructs one of the paper's mechanisms by name: "Minimal",
// "Valiant", "OmniWAR", "Polarized", "DOR", "DAL", "EscapeOnly", "OmniSP"
// or "PolSP", with vcs virtual channels per port (the paper uses 2n). root
// pins the escape subnetwork root of the SurePath configurations and of
// EscapeOnly.
func NewMechanism(name string, nw *Network, vcs int, root int32) (Mechanism, error) {
	return experiments.BuildMechanism(name, nw, vcs, root)
}

// NewSurePath builds a SurePath mechanism around a custom base algorithm.
func NewSurePath(nw *Network, alg Algorithm, totalVCs int, opts ...core.Option) (*SurePath, error) {
	return core.NewWithAlgorithm(nw, alg, totalVCs, opts...)
}

// NewDALAlgorithm builds the DAL routing algorithm (the original HyperX
// routing with per-dimension deroutes) for use with NewSurePath or a
// ladder.
func NewDALAlgorithm(nw *Network) (Algorithm, error) { return routing.NewDAL(nw) }

// WithRoot pins the SurePath escape root.
func WithRoot(root int32) core.Option { return core.WithRoot(root) }

// WithEscapeRule selects the SurePath escape legality rule.
func WithEscapeRule(rule EscapeRule) core.Option { return core.WithEscapeRule(rule) }

// NewPattern constructs a traffic pattern by name: "Uniform", "Random
// Server Permutation" (or "RSP"), "Dimension Complement Reverse" ("DCR"),
// "Regular Permutation to Neighbour" ("RPN").
func NewPattern(name string, h *Topology, serversPerSwitch int, seed uint64) (Pattern, error) {
	return experiments.BuildPattern(name, Servers{H: h, Per: serversPerSwitch}, seed)
}

// NewUniformPattern constructs the Uniform pattern for an explicit server
// count, usable with any Switched topology.
func NewUniformPattern(servers int) (Pattern, error) {
	return traffic.NewUniform(servers)
}

// Run simulates one configuration on the cycle-level engine.
func Run(o RunOptions) (*Result, error) { return sim.Run(o) }

// RunJobs executes n independent jobs on a bounded worker pool (workers < 1
// means one per CPU) and returns their results in job order: the substrate
// the experiment drivers parallelize on, exported for ad-hoc sweeps.
func RunJobs[T any](workers, n int, job func(index int) (T, error)) ([]T, error) {
	return experiments.RunJobs(workers, n, job)
}

// JobSeed derives the simulation seed of job index from a base seed; using
// it per grid point keeps parallel sweeps bit-identical for any worker
// count.
func JobSeed(seed uint64, index int) uint64 { return experiments.JobSeed(seed, index) }

// JobSpec is one experiment point as pure data: canonically hashable for
// result caching and serializable for distributed execution. Build specs
// directly (the zero value plus the fields you need) and run them with
// RunSpecs.
type JobSpec = experiments.JobSpec

// TopologySpec is the serializable shape of a switched topology.
type TopologySpec = topo.Spec

// TopologySpecOf describes a topology as a TopologySpec; Build round-trips.
func TopologySpecOf(t Switched) (TopologySpec, error) { return topo.SpecOf(t) }

// Runner is how spec runs execute — the grid pool size, the intra-run
// worker policy, the result cache, the checkpoint policy with its snapshot
// store and drain flag, a distributed executor — as one plain value. The
// zero value runs locally and sequentially on one pool worker per CPU;
// nothing in a Runner changes a result.
type Runner = experiments.Runner

// RunSpecs executes a grid of job specs through r — on its worker pool,
// its result cache and its executor — and returns results in spec order,
// bit-identical for any Runner.
func RunSpecs(r Runner, specs []JobSpec) ([]*Result, error) { return r.ExecuteJobs(specs) }

// ResultCache is a content-addressed on-disk store of simulation results:
// a Runner's Cache (and, for checkpoints, its Snapshots). Caching never
// changes results: keys cover every semantic spec field plus the engine
// version.
type ResultCache = cache.Store

// OpenResultCache opens (creating if needed) a result cache directory.
func OpenResultCache(dir string) (*ResultCache, error) { return cache.Open(dir) }

// CheckpointPolicy configures mid-run checkpointing of spec runs: Every
// is the wall-clock snapshot interval, EveryCycles a simulated-cycle
// interval (either at or below zero is disabled). A Runner with a policy
// and a snapshot store resumes its runs from stored snapshots and drops
// them on completion; a resumed run is bit-identical to an uninterrupted
// one.
type CheckpointPolicy = experiments.CheckpointPolicy

// ErrCheckpointed reports a run that stopped because its Runner's Drain
// flag was raised, after persisting its snapshot; re-running the same spec
// resumes it.
var ErrCheckpointed = sim.ErrCheckpointed

// EngineVersion tags the simulation semantics of this build; it is folded
// into every result-cache key and checked by the distribution handshake.
const EngineVersion = sim.EngineVersion

// DefaultWorkers resolves a worker-count setting: any value below 1 selects
// one worker per available CPU.
func DefaultWorkers(workers int) int { return experiments.DefaultWorkers(workers) }

// DefaultConfig returns the paper's Table 2 simulation parameters.
func DefaultConfig() Config { return sim.DefaultConfig() }

// MechanismNames lists the six mechanisms of the paper's Table 4.
func MechanismNames() []string { return experiments.MechanismNames() }

// PatternNames lists the patterns of the paper's Section 4 for a topology
// dimensionality.
func PatternNames(ndims int) []string { return experiments.PatternNames(ndims) }
