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
	// semantic: the canonical encoding sorts a normalized copy. Sharing one
	// slice is also what lets a grid encode it once: ExecuteJobsPartial
	// knows a list by its first element and length, so specs that share
	// the slice hash with one encoding of it, while equal edges in another
	// array are encoded again.
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
//
// Hashing a spec is most of a warm-cache grid point, so the bytes are built
// in place: strconv-style appends rather than fmt, the topology through
// topo.Spec.AppendText, the fault edges sorted as packed topo.EdgeKeys and
// printed from the keys, and no closures, so Hash's stack buffer stays on
// the stack. TestAppendCanonicalMatchesFmtReference holds the bytes to the
// fmt-formatted layout they replace.
func (s *JobSpec) AppendCanonical(b []byte) []byte { return s.appendCanonical(b, nil) }

// appendCanonical is AppendCanonical with the fault section given: faults is
// appendFaults of s.Faults, or nil to encode it here.
func (s *JobSpec) appendCanonical(b, faults []byte) []byte {
	b = s.Topo.AppendText(append(b, "topo="...))
	b = appendIntLine(append(b, "\nper="...), int64(s.Per))
	b = append(append(append(b, "mech="...), s.Mechanism...), '\n')
	b = append(append(append(b, "pattern="...), s.Pattern...), '\n')
	b = appendIntLine(append(b, "vcs="...), int64(s.VCs))
	b = appendIntLine(append(b, "root="...), int64(s.Root))
	b = append(b, "load="...)
	for bits, shift := math.Float64bits(s.Load), 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[bits>>uint(shift)&0xf])
	}
	b = appendIntLine(append(b, "\nwarmup="...), s.Budget.Warmup)
	b = appendIntLine(append(b, "measure="...), s.Budget.Measure)
	b = appendIntLine(append(b, "burst="...), int64(s.BurstPackets))
	b = appendIntLine(append(b, "seriesbucket="...), s.SeriesBucket)
	b = appendIntLine(append(b, "maxcycles="...), s.MaxCycles)
	b = append(strconv.AppendUint(append(b, "seed="...), s.Seed, 10), '\n')
	b = append(strconv.AppendUint(append(b, "patternseed="...), s.PatternSeed, 10), '\n')
	b = append(b, "faults="...)
	if faults == nil {
		b = appendFaults(b, s.Faults)
	} else {
		b = append(b, faults...)
	}
	b = append(b, "\nschedule="...)
	for _, ev := range canonicalSchedule(s.FaultSchedule) {
		b = append(appendInt(b, ev.Cycle), ':')
		b = appendEdge(b, topo.NewEdge(ev.Edge.U, ev.Edge.V))
	}
	b = append(b, '\n')
	return append(b, canonicalConfigLine...)
}

// appendFaults appends the fault section of the canonical encoding: the
// edges normalized, sorted as packed topo.EdgeKeys and printed from the
// keys. It is the one encoder of the section, whether a spec's hash builds
// it inline or a grid builds it once for every spec sharing the list.
func appendFaults(b []byte, faults []topo.Edge) []byte {
	if len(faults) == 0 {
		return b
	}
	keys := make([]topo.EdgeKey, len(faults))
	for i, e := range faults {
		keys[i] = topo.NewEdge(e.U, e.V).Key()
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = appendEdge(b, k.Edge())
	}
	return b
}

// canonicalConfigLine is the last line of the canonical encoding: the Table
// 2 defaults, which are fixed for the life of the process.
var canonicalConfigLine = fmt.Sprintf("config=%+v\n", sim.DefaultConfig())

// appendInt appends v in decimal. Vertex ids and cycles are almost always
// small and non-negative, and printing those directly is a measurable share
// of a spec hash; anything else takes strconv.
func appendInt(b []byte, v int64) []byte {
	if uint64(v) >= 100000 {
		return strconv.AppendInt(b, v, 10)
	}
	n := 1
	for t := v; t >= 10; t /= 10 {
		n++
	}
	i := len(b)
	b = append(b, 0, 0, 0, 0, 0)[:i+n] // room in place, no copy
	for j := i + n - 1; j >= i; j-- {
		b[j] = byte('0' + v%10)
		v /= 10
	}
	return b
}

// appendIntLine appends v in decimal and ends the line.
func appendIntLine(b []byte, v int64) []byte { return append(appendInt(b, v), '\n') }

// appendEdge appends one fault edge as the canonical encoding lists it,
// "U-V,", for the faults and schedule lines alike.
func appendEdge(b []byte, e topo.Edge) []byte {
	b = append(appendInt(b, int64(e.U)), '-')
	return append(appendInt(b, int64(e.V)), ',')
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

// hashStackBytes is the buffer Hash builds the canonical encoding in on its
// own stack: hashBound of a spec with up to about 280 fault edges and no
// schedule fits it. A larger spec gets a heap buffer of its bound.
const hashStackBytes = 4096

// hashBound is the size of a buffer that holds a valid spec's hashed bytes
// without regrowing: 512 covers the scalar lines and the engine tag, a
// vertex id below topo.MaxSwitches prints in at most 5 digits
// ("65535-65535," is 12 bytes) and a cycle in at most 20. Bytes past it —
// an invalid spec's long ids — still append, through a regrown buffer.
func (s *JobSpec) hashBound() int {
	return 512 + len(canonicalConfigLine) + len(s.Mechanism) + len(s.Pattern) +
		12*len(s.Faults) + 33*len(s.FaultSchedule)
}

// Hash returns the content address of the spec: the hex SHA-256 of its
// canonical encoding plus the engine version tag.
// Equal hashes mean "the same simulation on the same engine semantics",
// which is the result cache's key and the distribution protocol's
// integrity check.
func (s *JobSpec) Hash() string { return s.hashWith(nil) }

// hashWith is Hash with the fault section given, as appendCanonical takes
// it: a grid passes the bytes it encoded once for every spec sharing the
// list.
func (s *JobSpec) hashWith(faults []byte) string {
	var stack [hashStackBytes]byte
	b := stack[:0]
	if n := s.hashBound(); n > len(stack) {
		b = make([]byte, 0, n)
	}
	b = s.appendCanonical(b, faults)
	b = append(b, "engine="...)
	b = append(b, sim.EngineVersion...)
	sum := sha256.Sum256(b)
	var hexSum [2 * sha256.Size]byte // hex.EncodeToString allocates twice
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:])
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
