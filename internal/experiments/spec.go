package experiments

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// JobSpec is one fully specified point of an experiment grid as pure data:
// topology shape, mechanism and pattern names, VC budget, escape root,
// offered load or burst size, simulation windows, fault set, fault
// schedule and seeds. Unlike a live network pointer, a spec can be
// canonically hashed (result caching), serialized (work-queue
// distribution) and rebuilt anywhere: a run constructs a private network,
// pattern and mechanism from the spec alone, so equal specs produce
// bit-identical results in any process running the same sim.EngineVersion.
type JobSpec struct {
	// Label names the job in error messages; empty derives one from the
	// mechanism, pattern and load. It is presentation only and excluded
	// from the canonical encoding and hash.
	Label string `json:"label,omitempty"`
	// Topo is the serializable topology shape.
	Topo topo.Spec `json:"topo"`
	// Per is the number of servers per switch.
	Per       int    `json:"per"`
	Mechanism string `json:"mechanism"`
	Pattern   string `json:"pattern"`
	VCs       int    `json:"vcs"`
	// Root pins the escape subnetwork root (SurePath mechanisms).
	Root int32 `json:"root"`
	// Load is the offered load; ignored in burst mode.
	Load   float64 `json:"load,omitempty"`
	Budget Budget  `json:"budget"`
	// BurstPackets, when positive, selects completion-time mode.
	BurstPackets int   `json:"burstPackets,omitempty"`
	SeriesBucket int64 `json:"seriesBucket,omitempty"`
	MaxCycles    int64 `json:"maxCycles,omitempty"`
	// Faults is the static fault set; nil means fault-free. The slice is
	// read-only and may be shared between specs. Edge order is not
	// semantic: the canonical encoding sorts a normalized copy.
	Faults []topo.Edge `json:"faults,omitempty"`
	// FaultSchedule injects link failures mid-run. The engine applies
	// events in stable cycle order, which is also how they are
	// canonicalized.
	FaultSchedule []sim.FaultEvent `json:"faultSchedule,omitempty"`
	// Seed is the simulation seed (typically JobSeed of the grid's base
	// seed and the job index).
	Seed uint64 `json:"seed"`
	// PatternSeed builds the traffic pattern; grids share it so every
	// mechanism and load faces the same pattern instance.
	PatternSeed uint64 `json:"patternSeed"`
}

func (s *JobSpec) label() string {
	if s.Label != "" {
		return s.Label
	}
	return fmt.Sprintf("%s/%s at load %.2f", s.Mechanism, s.Pattern, s.Load)
}

// String names the job for human-facing reports (quarantine histories,
// progress lines): the explicit Label if set, else mechanism/pattern/load.
func (s *JobSpec) String() string { return s.label() }

// AppendCanonical appends the canonical encoding of the spec to b: a fixed
// field order, exact float bit patterns, normalized sorted fault edges and
// a stable fault-schedule order. Two specs append equal bytes exactly when
// they describe the same simulation; the Label is excluded. The encoding
// also folds in the Table 2 default configuration, so changing the
// microarchitectural defaults invalidates cached results even without an
// EngineVersion bump.
func (s *JobSpec) AppendCanonical(b []byte) []byte {
	// Hashing a spec is most of a warm-cache grid point, so the bytes are
	// built with strconv appends rather than one fmt.Appendf per field and
	// per fault edge; TestAppendCanonicalMatchesFmtReference holds them to
	// the fmt-formatted layout they replace.
	str := func(key, v string) {
		b = append(append(append(b, key...), v...), '\n')
	}
	num := func(key string, v int64) {
		b = append(strconv.AppendInt(append(b, key...), v, 10), '\n')
	}
	unum := func(key string, v uint64) {
		b = append(strconv.AppendUint(append(b, key...), v, 10), '\n')
	}
	edge := func(e topo.Edge) {
		b = strconv.AppendInt(b, int64(e.U), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(e.V), 10)
		b = append(b, ',')
	}
	str("topo=", s.Topo.String())
	num("per=", int64(s.Per))
	str("mech=", s.Mechanism)
	str("pattern=", s.Pattern)
	num("vcs=", int64(s.VCs))
	num("root=", int64(s.Root))
	b = append(b, "load="...)
	for bits, shift := math.Float64bits(s.Load), 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[bits>>uint(shift)&0xf])
	}
	b = append(b, '\n')
	num("warmup=", s.Budget.Warmup)
	num("measure=", s.Budget.Measure)
	num("burst=", int64(s.BurstPackets))
	num("seriesbucket=", s.SeriesBucket)
	num("maxcycles=", s.MaxCycles)
	unum("seed=", s.Seed)
	unum("patternseed=", s.PatternSeed)
	b = append(b, "faults="...)
	for _, e := range canonicalEdges(s.Faults) {
		edge(e)
	}
	b = append(b, "\nschedule="...)
	for _, ev := range canonicalSchedule(s.FaultSchedule) {
		b = strconv.AppendInt(b, ev.Cycle, 10)
		b = append(b, ':')
		edge(topo.NewEdge(ev.Edge.U, ev.Edge.V))
	}
	b = append(b, '\n')
	return append(b, canonicalConfigLine...)
}

// canonicalConfigLine is the last line of the canonical encoding: the Table
// 2 defaults, which are fixed for the life of the process.
var canonicalConfigLine = fmt.Sprintf("config=%+v\n", sim.DefaultConfig())

// canonicalEdges returns the edges normalized (U <= V) and in the shared
// topo.SortEdges order; the input is left untouched.
func canonicalEdges(edges []topo.Edge) []topo.Edge {
	if len(edges) == 0 {
		return nil
	}
	out := make([]topo.Edge, len(edges))
	for i, e := range edges {
		out[i] = topo.NewEdge(e.U, e.V)
	}
	return topo.SortEdges(out)
}

// canonicalSchedule stable-sorts a copy of the schedule by cycle, matching
// the engine's application order (same-cycle events keep their relative
// order, which is semantic for error reporting but not for results).
func canonicalSchedule(events []sim.FaultEvent) []sim.FaultEvent {
	if len(events) == 0 {
		return nil
	}
	out := append([]sim.FaultEvent(nil), events...)
	slices.SortStableFunc(out, func(a, b sim.FaultEvent) int { return cmp.Compare(a.Cycle, b.Cycle) })
	return out
}

// Hash returns the content address of the spec: the hex SHA-256 of its
// canonical encoding plus the engine version tag.
// Equal hashes mean "the same simulation on the same engine semantics",
// which is the result cache's key and the distribution protocol's
// integrity check.
func (s *JobSpec) Hash() string {
	// One buffer that holds a valid spec's bytes without regrowing: 512
	// covers the scalar lines, a vertex id below topo.MaxSwitches prints in
	// at most 5 digits ("65535-65535," is 12 bytes) and a cycle in at most
	// 20.
	n := 512 + len(canonicalConfigLine) + len(s.Mechanism) + len(s.Pattern) +
		12*len(s.Faults) + 33*len(s.FaultSchedule)
	b := s.AppendCanonical(make([]byte, 0, n))
	b = append(b, "engine="...)
	b = append(b, sim.EngineVersion...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// EncodeJSON serializes the spec for the wire (work-queue protocol). The
// JSON form is for transport only: hashing always goes through the
// canonical encoding after decoding, so formatting differences never
// change a job's identity.
func (s *JobSpec) EncodeJSON() ([]byte, error) {
	return json.Marshal(s)
}

// DecodeSpecJSON deserializes a spec encoded by EncodeJSON.
func DecodeSpecJSON(data []byte) (*JobSpec, error) {
	s := &JobSpec{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("experiments: bad job spec: %w", err)
	}
	return s, nil
}

// Validate checks the spec's topology and names without running anything.
func (s *JobSpec) Validate() error {
	t, err := s.Topo.Build()
	if err != nil {
		return err
	}
	_, err = s.buildPattern(t)
	return err
}

// maxServers bounds switches x Per, the count the patterns and the engine
// allocate by, since a spec may come off a socket: 32 servers on each of
// topo.MaxSwitches switches.
const maxServers = 1 << 21

// buildPattern constructs the spec's traffic pattern on a built topology,
// once the server count the two imply is in bounds. HyperX accepts every
// pattern; other topologies only carry Uniform (the coordinate patterns
// are HyperX-specific), matching the Section 7 study.
func (s *JobSpec) buildPattern(t topo.Switched) (traffic.Pattern, error) {
	if s.Per < 1 {
		return nil, fmt.Errorf("experiments: spec needs >= 1 servers per switch, got %d", s.Per)
	}
	if s.Per > maxServers/t.Switches() {
		return nil, fmt.Errorf("experiments: %s with %d servers per switch has more than %d servers", s.Topo, s.Per, maxServers)
	}
	if hx, ok := t.(*topo.HyperX); ok {
		return BuildPattern(s.Pattern, traffic.Servers{H: hx, Per: s.Per}, s.PatternSeed)
	}
	if s.Pattern == "Uniform" {
		return traffic.NewUniform(t.Switches() * s.Per)
	}
	return nil, fmt.Errorf("experiments: pattern %q needs a HyperX topology, %s is %s", s.Pattern, s.Topo, s.Topo.Kind)
}

// buildRun constructs the full RunOptions of the spec on a private
// network, pattern and mechanism — the construction every run of r shares,
// plain or checkpointed. Rebuilding everything per run is what makes specs
// safe to run concurrently, on remote workers, and to resume from a
// snapshot in a fresh process. r contributes the intra-run worker count
// alone, a pure scheduling choice that never affects the result.
func (s *JobSpec) buildRun(r Runner) (sim.RunOptions, error) {
	t, err := s.Topo.Build()
	if err != nil {
		return sim.RunOptions{}, err
	}
	nw := topo.NewNetwork(t, topo.NewFaultSet(s.Faults...))
	pat, err := s.buildPattern(t)
	if err != nil {
		return sim.RunOptions{}, fmt.Errorf("pattern %q: %w", s.Pattern, err)
	}
	mech, err := BuildMechanism(s.Mechanism, nw, s.VCs, s.Root)
	if err != nil {
		return sim.RunOptions{}, err
	}
	return sim.RunOptions{
		Net:              nw,
		ServersPerSwitch: s.Per,
		Mechanism:        mech,
		Pattern:          pat,
		Load:             s.Load,
		WarmupCycles:     s.Budget.Warmup,
		MeasureCycles:    s.Budget.Measure,
		BurstPackets:     s.BurstPackets,
		SeriesBucket:     s.SeriesBucket,
		MaxCycles:        s.MaxCycles,
		FaultSchedule:    s.FaultSchedule,
		Seed:             s.Seed,
		Workers:          r.runWorkersFor(t.Switches()),
	}, nil
}

// MeasureMemory builds the engine r would run the spec on, as a one-point
// grid, on a private network and returns its arena accounting without
// running anything: the construction-only path behind the CLIs' -mem-stats
// flag. Pure diagnostics — it shares the construction code with RunSpec but
// never touches a result or the cache.
func (r Runner) MeasureMemory(s *JobSpec) (*sim.MemStats, error) {
	o, err := s.buildRun(r.forGrid(1))
	if err != nil {
		return nil, err
	}
	return sim.MeasureEngineMemory(o)
}

// HyperXSpec is a convenience constructor for the common case: the spec of
// an n-dimensional HyperX.
func HyperXSpec(h *topo.HyperX) topo.Spec {
	return topo.Spec{Kind: topo.KindHyperX, Dims: append([]int(nil), h.Dims()...)}
}
