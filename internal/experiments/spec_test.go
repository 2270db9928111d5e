package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topo"
)

// baseSpec is a fully populated spec the canonicalization tests mutate.
func baseSpec() JobSpec {
	return JobSpec{
		Label:     "base",
		Topo:      topo.Spec{Kind: topo.KindHyperX, Dims: []int{4, 4}},
		Per:       4,
		Mechanism: "PolSP",
		Pattern:   "Uniform",
		VCs:       4,
		Root:      5,
		Load:      0.7,
		Budget:    Budget{Warmup: 300, Measure: 600},
		Faults: []topo.Edge{
			{U: 1, V: 5}, {U: 2, V: 6},
		},
		FaultSchedule: []sim.FaultEvent{
			{Cycle: 100, Edge: topo.Edge{U: 3, V: 7}},
		},
		Seed:        11,
		PatternSeed: 13,
	}
}

// TestSpecHashFaultOrderInvariant: the hash must not depend on fault-edge
// enumeration order or on the (U, V) orientation of an edge.
func TestSpecHashFaultOrderInvariant(t *testing.T) {
	a := baseSpec()
	b := baseSpec()
	b.Faults = []topo.Edge{{U: 6, V: 2}, {U: 5, V: 1}} // reversed order, flipped ends
	if a.Hash() != b.Hash() {
		t.Error("hash depends on fault-edge ordering/orientation")
	}
	c := baseSpec()
	c.FaultSchedule = []sim.FaultEvent{{Cycle: 100, Edge: topo.Edge{U: 7, V: 3}}}
	if a.Hash() != c.Hash() {
		t.Error("hash depends on schedule edge orientation")
	}
}

// TestSpecHashSensitivity: every semantic field change must move the hash;
// the Label (presentation only) must not.
func TestSpecHashSensitivity(t *testing.T) {
	base := baseSpec()
	baseHash := base.Hash()
	if base.Hash() != baseHash {
		t.Fatal("hash not stable")
	}
	relabeled := baseSpec()
	relabeled.Label = "completely different"
	if relabeled.Hash() != baseHash {
		t.Error("Label is not semantic but changed the hash")
	}
	mutations := map[string]func(*JobSpec){
		"Topo.Kind":     func(s *JobSpec) { s.Topo = topo.Spec{Kind: topo.KindTorus, Dims: []int{4, 4}} },
		"Topo.Dims":     func(s *JobSpec) { s.Topo.Dims = []int{4, 5} },
		"Per":           func(s *JobSpec) { s.Per = 2 },
		"Mechanism":     func(s *JobSpec) { s.Mechanism = "OmniSP" },
		"Pattern":       func(s *JobSpec) { s.Pattern = "Random Server Permutation" },
		"VCs":           func(s *JobSpec) { s.VCs = 6 },
		"Root":          func(s *JobSpec) { s.Root = 0 },
		"Load":          func(s *JobSpec) { s.Load = 0.70000000001 },
		"Budget.Warmup": func(s *JobSpec) { s.Budget.Warmup = 301 },
		"Budget.Measure": func(s *JobSpec) {
			s.Budget.Measure = 601
		},
		"BurstPackets":  func(s *JobSpec) { s.BurstPackets = 10 },
		"SeriesBucket":  func(s *JobSpec) { s.SeriesBucket = 500 },
		"MaxCycles":     func(s *JobSpec) { s.MaxCycles = 1 << 20 },
		"Faults":        func(s *JobSpec) { s.Faults = s.Faults[:1] },
		"FaultSchedule": func(s *JobSpec) { s.FaultSchedule[0].Cycle = 101 },
		"Seed":          func(s *JobSpec) { s.Seed = 12 },
		"PatternSeed":   func(s *JobSpec) { s.PatternSeed = 14 },
	}
	seen := map[string]string{baseHash: "base"}
	for field, mutate := range mutations {
		s := baseSpec()
		// Deep-copy the shared slices so slice mutations stay local.
		s.Faults = append([]topo.Edge(nil), s.Faults...)
		s.FaultSchedule = append([]sim.FaultEvent(nil), s.FaultSchedule...)
		mutate(&s)
		h := s.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %s collides with %s", field, prev)
			continue
		}
		seen[h] = field
	}
	// The count in `seen` proves every mutation moved the hash off base.
	if len(seen) != len(mutations)+1 {
		t.Errorf("expected %d distinct hashes, got %d", len(mutations)+1, len(seen))
	}
}

// TestSpecEncodeDecodeRunBitIdentical: the wire round-trip must be
// semantics-preserving for every mechanism — running a decoded spec gives
// the same bytes as running the original.
func TestSpecEncodeDecodeRunBitIdentical(t *testing.T) {
	var specs []JobSpec
	for _, mech := range append(MechanismNames(), "DOR", "EscapeOnly") {
		specs = append(specs, JobSpec{
			Label:     mech + " fault-free",
			Topo:      topo.Spec{Kind: topo.KindHyperX, Dims: []int{4, 4}},
			Per:       4,
			Mechanism: mech,
			Pattern:   "Random Server Permutation",
			VCs:       4,
			Root:      2,
			Load:      0.6,
			Budget:    Budget{Warmup: 300, Measure: 600},
			Seed:      21, PatternSeed: 23,
		})
	}
	// The fault-tolerant configurations additionally round-trip with a
	// static fault set, a burst run and a mid-run fault schedule.
	faults := topo.RandomFaultSequence(tiny2D(), 3)[:2]
	withFaults := specs[len(MechanismNames())-1] // PolSP
	withFaults.Label = "PolSP faulted"
	withFaults.Faults = faults
	burst := withFaults
	burst.Label = "OmniSP burst"
	burst.Mechanism = "OmniSP"
	burst.Load = 0
	burst.BurstPackets = 20
	burst.SeriesBucket = 500
	scheduled := specs[len(MechanismNames())-1]
	scheduled.Label = "PolSP live faults"
	scheduled.FaultSchedule = []sim.FaultEvent{
		{Cycle: 300, Edge: faults[0]},
		{Cycle: 500, Edge: faults[1]},
	}
	specs = append(specs, withFaults, burst, scheduled)
	for i := range specs {
		spec := &specs[i]
		data, err := spec.EncodeJSON()
		if err != nil {
			t.Fatalf("%s: encode: %v", spec.Label, err)
		}
		decoded, err := DecodeSpecJSON(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", spec.Label, err)
		}
		if decoded.Hash() != spec.Hash() {
			t.Errorf("%s: hash changed across the wire", spec.Label)
		}
		want, err := Runner{}.RunSpec(spec)
		if err != nil {
			t.Fatalf("%s: run original: %v", spec.Label, err)
		}
		got, err := Runner{}.RunSpec(decoded)
		if err != nil {
			t.Fatalf("%s: run decoded: %v", spec.Label, err)
		}
		if string(want.AppendBinary(nil)) != string(got.AppendBinary(nil)) {
			t.Errorf("%s: decoded spec ran to different bytes", spec.Label)
		}
	}
}

// TestSpecValidate covers the spec-level checks that need no simulation.
func TestSpecValidate(t *testing.T) {
	s := baseSpec()
	if err := s.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	s.Topo.Kind = "banyan"
	if err := s.Validate(); err == nil {
		t.Error("unknown topology accepted")
	}
	s = baseSpec()
	s.Per = 0
	if err := s.Validate(); err == nil {
		t.Error("zero servers per switch accepted")
	}
	// Coordinate patterns require a HyperX shape.
	s = baseSpec()
	s.Topo = topo.Spec{Kind: topo.KindTorus, Dims: []int{4, 4}}
	s.Pattern = "Dimension Complement Reverse"
	if err := s.Validate(); err == nil {
		t.Error("coordinate pattern on torus accepted")
	}
	s.Pattern = "Uniform"
	if err := s.Validate(); err != nil {
		t.Errorf("uniform on torus rejected: %v", err)
	}
}

// TestExecuteJobsCacheSecondRunAllHits: with a result cache on the Runner, an
// identical grid re-run performs zero simulations (every point hits) and
// returns bit-identical rows; a semantically different grid misses.
func TestExecuteJobsCacheSecondRunAllHits(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Cache: store}
	cfg := SweepConfig{
		H:          tiny2D(),
		Mechanisms: []string{"Minimal", "PolSP"},
		Patterns:   []string{"Uniform"},
		Loads:      []float64{0.3, 0.8},
		Budget:     Budget{Warmup: 300, Measure: 600},
		Seed:       31,
	}
	first, err := Run(r, nil, SweepGrid(cfg))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := store.Stats()
	if hits != 0 || misses != 4 {
		t.Fatalf("first run: %d hits %d misses, want 0/4", hits, misses)
	}
	second, err := Run(r, nil, SweepGrid(cfg))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = store.Stats()
	if hits != 4 || misses != 4 {
		t.Fatalf("second run: %d hits %d misses, want 4/4 (100%% hits)", hits, misses)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached rows differ from computed rows")
	}
	if a, b := RenderSweep("t", first), RenderSweep("t", second); a != b {
		t.Fatal("cached render is not byte-identical")
	}
	// A different seed is a different grid: all misses again.
	cfg.Seed = 32
	if _, err := Run(r, nil, SweepGrid(cfg)); err != nil {
		t.Fatal(err)
	}
	hits, misses = store.Stats()
	if hits != 4 || misses != 8 {
		t.Fatalf("changed grid: %d hits %d misses, want 4/8", hits, misses)
	}
	if n, err := store.Len(); err != nil || n != 8 {
		t.Fatalf("store holds %d entries (err %v), want 8", n, err)
	}
}

// TestGridKeysMatchSpecHash: a grid run through a result cache files every
// result under its spec's Hash, whatever the grid shares — no faults, an
// empty list, one list under several specs (mixed orientation, a duplicate
// edge, and a fault schedule beside it), two prefixes of one sequence, an
// offset window into it, and equal edges in a second array — at one worker
// and at four. A warm rerun is all hits with the same results.
func TestGridKeysMatchSpecHash(t *testing.T) {
	t.Parallel()
	seq := topo.RandomFaultSequence(tiny2D(), 7)
	shared := []topo.Edge{{U: 5, V: 1}, {U: 2, V: 6}, {U: 6, V: 2}, {U: 0, V: 4}}
	twin := append([]topo.Edge(nil), shared...)
	lists := [][]topo.Edge{nil, {}, shared, shared, seq[:10], seq[:20], seq[:10], seq[5:15], seq[5:15], twin, shared}
	var specs []JobSpec
	for i, faults := range lists {
		for _, load := range []float64{0.3, 0.8} {
			s := baseSpec()
			s.Faults, s.FaultSchedule, s.Load, s.Seed = faults, nil, load, uint64(len(specs))
			if i == len(lists)-1 {
				s.FaultSchedule = []sim.FaultEvent{{Cycle: 50, Edge: topo.Edge{U: 9, V: 8}}, {Cycle: 20, Edge: topo.Edge{U: 3, V: 7}}}
			}
			specs = append(specs, s)
		}
	}
	keys := make(map[string]bool)
	for i := range specs {
		keys[specs[i].Hash()] = true
	}
	fake := func(s *JobSpec) (*sim.Result, error) { return &sim.Result{CompletionTime: int64(s.Seed)}, nil }
	miss := func(s *JobSpec) (*sim.Result, error) { return nil, fmt.Errorf("%s missed a warm cache", s) }
	for _, workers := range []int{1, 4} {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Runner{Workers: workers, Cache: store, Execute: fake}.ExecuteJobs(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if _, ok, err := store.Get(specs[i].Hash()); err != nil || !ok {
				t.Fatalf("workers=%d: no entry under the Hash of spec %d (%d faults): %v", workers, i, len(specs[i].Faults), err)
			}
		}
		if n, err := store.Len(); err != nil || n != len(keys) {
			t.Fatalf("workers=%d: store holds %d entries (err %v), want %d", workers, n, err, len(keys))
		}
		hits, misses := store.Stats()
		warm, err := Runner{Workers: workers, Cache: store, Execute: miss}.ExecuteJobs(specs)
		if err != nil {
			t.Fatal(err)
		}
		if h, m := store.Stats(); h-hits != int64(len(specs)) || m != misses {
			t.Fatalf("workers=%d: warm rerun took %d hits, %d misses; want %d, 0", workers, h-hits, m-misses, len(specs))
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("workers=%d: warm results differ from cold ones", workers)
		}
	}
}

// refAppendCanonical is the fmt-based canonical encoder AppendCanonical
// replaced, kept verbatim (its own edge sort included) as the definition of
// the bytes: every cached result and journaled grid is addressed by their
// SHA-256.
func refAppendCanonical(s *JobSpec, b []byte) []byte {
	w := func(format string, args ...any) {
		b = fmt.Appendf(b, format, args...)
	}
	w("topo=%s\n", s.Topo)
	w("per=%d\n", s.Per)
	w("mech=%s\n", s.Mechanism)
	w("pattern=%s\n", s.Pattern)
	w("vcs=%d\n", s.VCs)
	w("root=%d\n", s.Root)
	w("load=%016x\n", math.Float64bits(s.Load))
	w("warmup=%d\n", s.Budget.Warmup)
	w("measure=%d\n", s.Budget.Measure)
	w("burst=%d\n", s.BurstPackets)
	w("seriesbucket=%d\n", s.SeriesBucket)
	w("maxcycles=%d\n", s.MaxCycles)
	w("seed=%d\n", s.Seed)
	w("patternseed=%d\n", s.PatternSeed)
	b = append(b, "faults="...)
	edges := make([]topo.Edge, len(s.Faults))
	for i, e := range s.Faults {
		edges[i] = topo.NewEdge(e.U, e.V)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for _, e := range edges {
		w("%d-%d,", e.U, e.V)
	}
	b = append(b, "\nschedule="...)
	schedule := append([]sim.FaultEvent(nil), s.FaultSchedule...)
	sort.SliceStable(schedule, func(i, j int) bool { return schedule[i].Cycle < schedule[j].Cycle })
	for _, ev := range schedule {
		e := topo.NewEdge(ev.Edge.U, ev.Edge.V)
		w("%d:%d-%d,", ev.Cycle, e.U, e.V)
	}
	b = append(b, '\n')
	w("config=%+v\n", sim.DefaultConfig())
	return b
}

// canonicalCases returns the specs the canonical-encoding tests share, in a
// fixed order: fault sets of 0, 1, 50 and 500 edges in shuffled order and
// mixed orientation (duplicates included, loads varied), the odd spec with
// an unsorted same-cycle fault schedule and extreme fields, and three
// fault-free Dragonfly specs with a -0, a tiny and an infinite load.
// TestSpecHashGolden pins the hashes of five of them, so neither the list
// nor the random draws that build it may change.
func canonicalCases() []JobSpec {
	h := topo.MustHyperX(8, 8, 8)
	seq := topo.RandomFaultSequence(h, 3)
	r := rng.New(5)
	faults := func(n int) []topo.Edge {
		out := append([]topo.Edge(nil), seq[:n]...)
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		for i := range out {
			if r.Intn(2) == 0 {
				out[i].U, out[i].V = out[i].V, out[i].U
			}
		}
		if n >= 50 {
			out = append(out, out[3], out[7]) // the sort sees equal keys
		}
		return out
	}
	loads := []float64{0, 0.7, 1, math.Float64frombits(1), math.Copysign(0, -1), 1e-300, math.Inf(1)}
	var specs []JobSpec
	for i, n := range []int{0, 1, 50, 500} {
		s := baseSpec()
		s.Topo = topo.Spec{Kind: topo.KindHyperX, Dims: []int{8, 8, 8}}
		s.Faults = faults(n)
		s.Load = loads[i]
		specs = append(specs, s)
	}
	odd := baseSpec()
	odd.Root, odd.MaxCycles, odd.SeriesBucket = -1, -5, 2000
	odd.Per, odd.VCs, odd.BurstPackets = 0, -3, 500
	odd.Budget = Budget{Warmup: -1, Measure: math.MaxInt64}
	odd.Seed, odd.PatternSeed = math.MaxUint64, math.MaxUint64-1
	odd.Load = loads[4]
	odd.Mechanism, odd.Pattern = "", "Regular Permutation to Neighbour"
	odd.FaultSchedule = []sim.FaultEvent{
		{Cycle: 900, Edge: topo.Edge{U: 9, V: 1}},
		{Cycle: 100, Edge: topo.Edge{U: 7, V: 3}},
		{Cycle: 900, Edge: topo.Edge{U: 2, V: 6}},
		{Cycle: math.MaxInt64, Edge: topo.Edge{U: 0, V: 4}},
	}
	specs = append(specs, odd)
	for _, load := range loads[4:] {
		s := baseSpec()
		s.Load, s.Faults, s.FaultSchedule = load, nil, nil
		s.Topo = topo.Spec{Kind: topo.KindDragonfly, Dims: []int{4, 2}}
		specs = append(specs, s)
	}
	return specs
}

// TestSpecHashGolden pins Hash itself: every cached result and journaled
// grid on disk is addressed by these values, so they may only move together
// with sim.EngineVersion. The literals are the keys existing stores were
// written under; never regenerate them from the code under test.
func TestSpecHashGolden(t *testing.T) {
	specs := canonicalCases()
	for _, c := range []struct {
		name string
		spec *JobSpec
		want string
	}{
		{"fault-free", &specs[0], "58df0a2d40e69e1af2cdd6714baf59ed1e6f401d0d0d25df2f7961718a3d5930"},
		{"50 faults", &specs[2], "02d2d61650fcdd1e55fb4faaf37c21a5cba51692f2428b6d2c002631913f1317"},
		{"500 faults", &specs[3], "b20b5f4ccde321e553006b9b90305ca6c1d5cdae23d7bc1be3ce0e8c29b151d3"},
		{"odd", &specs[4], "679002ead30451ff00d90fb0220bc40800e741096efa1fde0b24a5317636f33c"},
		{"dragonfly", &specs[5], "d914a2f17cfd946496ed0d7599fd87541a474b7ad36d3aaf7285101d1535e703"},
	} {
		if got := c.spec.Hash(); got != c.want {
			t.Errorf("%s: Hash() = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAppendCanonicalMatchesFmtReference: the strconv-built encoding is
// byte-for-byte the fmt-built one — over canonicalCases (shuffled, flipped
// and duplicated fault sets, an unsorted same-cycle fault schedule, negative
// Root and MaxCycles, seeds at the top of uint64, load bit patterns with
// leading zero digits and the sign bit set) and fault sets the packed sort
// key could misorder: negative vertex ids, math.MinInt32 and math.MaxInt32
// endpoints, equal U with different V, and reversed duplicates.
//
// The rows past those cover the digit printer's edges — ids and cycles
// around each power of ten up to its 5-digit fast path and the int32 and
// int64 extremes — and Hash's stack buffer: canonical bytes of exactly
// hashStackBytes and one over, and a size bound of exactly hashStackBytes
// and one over, the last stack-built and first heap-built hash. Hash is held
// to the SHA-256 of the reference bytes on every row.
func TestAppendCanonicalMatchesFmtReference(t *testing.T) {
	specs := canonicalCases()
	for _, faults := range append(sortKeyCases(), digitEdgeCases()...) {
		s := baseSpec()
		s.Faults = faults
		s.FaultSchedule = []sim.FaultEvent{
			{Cycle: 7, Edge: faults[1]}, {Cycle: -7, Edge: faults[0]}, {Cycle: 7, Edge: faults[2]},
		}
		specs = append(specs, s)
	}
	digits := baseSpec()
	for _, c := range digitEdgeCycles() {
		digits.FaultSchedule = append(digits.FaultSchedule, sim.FaultEvent{Cycle: c, Edge: topo.Edge{U: int32(c), V: 1}})
	}
	specs = append(specs, digits)
	for _, over := range []int{0, 1} {
		s := baseSpec()
		s.Faults = nil
		s.Faults = paddingFaults(hashStackBytes + over - len(refAppendCanonical(&s, nil)))
		if n := len(refAppendCanonical(&s, nil)); n != hashStackBytes+over {
			t.Fatalf("padded spec has %d canonical bytes, want %d", n, hashStackBytes+over)
		}
		specs = append(specs, s)
		s = baseSpec()
		s.Mechanism += strings.Repeat("m", hashStackBytes+over-s.hashBound())
		if n := s.hashBound(); n != hashStackBytes+over {
			t.Fatalf("padded spec has a size bound of %d, want %d", n, hashStackBytes+over)
		}
		specs = append(specs, s)
	}
	for i := range specs {
		s := &specs[i]
		want := refAppendCanonical(s, []byte("prefix|"))
		if got := s.AppendCanonical([]byte("prefix|")); !bytes.Equal(got, want) {
			t.Errorf("spec %d (%d faults): canonical bytes differ\n got: %q\nwant: %q", i, len(s.Faults), got, want)
		}
		if got, want := s.Hash(), refHash(s); got != want {
			t.Errorf("spec %d (%d faults): Hash() = %s, want %s", i, len(s.Faults), got, want)
		}
	}
}

// refHash is Hash defined on the reference bytes.
func refHash(s *JobSpec) string {
	sum := sha256.Sum256(append(refAppendCanonical(s, nil), "engine="+sim.EngineVersion...))
	return hex.EncodeToString(sum[:])
}

// digitEdgeCycles are the values on both sides of every boundary of the
// canonical encoding's digit printer: each power of ten up to its 5-digit
// fast path, the largest vertex id, and the negative and 32- and 64-bit
// extremes strconv takes.
func digitEdgeCycles() []int64 {
	return []int64{0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 65535, 99999, 100000,
		-1, math.MinInt32, math.MaxInt32, math.MinInt64, math.MaxInt64}
}

// digitEdgeCases are fault lists whose ids sit on the digit printer's
// boundaries (digitEdgeCycles within int32), as U and as V.
func digitEdgeCases() [][]topo.Edge {
	var ids []int32
	for _, c := range digitEdgeCycles() {
		if c >= math.MinInt32 && c <= math.MaxInt32 {
			ids = append(ids, int32(c))
		}
	}
	var asU, asV []topo.Edge
	for i, id := range ids {
		asU = append(asU, topo.Edge{U: id, V: ids[(i+1)%len(ids)]})
		asV = append(asV, topo.Edge{U: 3, V: id})
	}
	return [][]topo.Edge{asU, asV}
}

// paddingFaults returns fault edges whose canonical listing ("U-V," each)
// is exactly n >= 4 bytes long.
func paddingFaults(n int) []topo.Edge {
	var out []topo.Edge
	for ; n >= 16; n -= 12 {
		out = append(out, topo.Edge{U: 10000, V: 10000}) // "10000-10000,"
	}
	for ; n > 12; n -= 4 {
		out = append(out, topo.Edge{U: 1, V: 1}) // "1-1,"
	}
	du := min(n-3, 5) // n-2 digits in all, at most 5 in U and at least 1 in V
	return append(out, topo.Edge{U: int32(math.Pow10(du - 1)), V: int32(math.Pow10(n - 3 - du))})
}

// sortKeyCases are fault lists a packed (U, V) sort key could misorder:
// negative vertex ids (a decoded spec carries them until Validate),
// math.MinInt32 and math.MaxInt32 endpoints, equal U with different V, and
// reversed duplicates.
func sortKeyCases() [][]topo.Edge {
	return [][]topo.Edge{
		{{U: -1, V: 2}, {U: 3, V: -4}, {U: -7, V: -2}, {U: 0, V: 0}, {U: -1, V: -1}},
		{{U: math.MaxInt32, V: math.MinInt32}, {U: 0, V: math.MaxInt32}, {U: math.MinInt32, V: 0},
			{U: math.MinInt32, V: math.MinInt32}, {U: math.MaxInt32, V: math.MaxInt32}, {U: -1, V: 0}},
		{{U: 4, V: 9}, {U: 4, V: 1}, {U: 4, V: 6}, {U: 4, V: -6}, {U: 4, V: 5}},
		{{U: 5, V: 2}, {U: 2, V: 5}, {U: 2, V: 5}, {U: -3, V: 1}, {U: 1, V: -3}},
	}
}

// FuzzAppendCanonicalMatchesReference: fault and schedule lists decoded
// from arbitrary bytes encode exactly as refAppendCanonical does. Every 8
// bytes of faults are one edge (two little-endian int32 ids); every 9 bytes
// of schedule are one event, a signed one-byte cycle (so same-cycle events
// are common) followed by an edge.
func FuzzAppendCanonicalMatchesReference(f *testing.F) {
	edges := func(es []topo.Edge) []byte {
		var b []byte
		for _, e := range es {
			b = binary.LittleEndian.AppendUint32(b, uint32(e.U))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.V))
		}
		return b
	}
	for _, faults := range append(sortKeyCases(), digitEdgeCases()...) {
		f.Add(edges(faults), append([]byte{7}, edges(faults[:1])...))
	}
	empty := baseSpec()
	empty.Faults, empty.FaultSchedule = nil, nil
	for _, over := range []int{0, 1} { // canonical bytes of exactly Hash's stack buffer, and one over
		f.Add(edges(paddingFaults(hashStackBytes+over-len(refAppendCanonical(&empty, nil)))), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, faults, schedule []byte) {
		edge := func(b []byte) topo.Edge {
			return topo.Edge{U: int32(binary.LittleEndian.Uint32(b)), V: int32(binary.LittleEndian.Uint32(b[4:]))}
		}
		s := baseSpec()
		s.Faults, s.FaultSchedule = nil, nil
		for ; len(faults) >= 8; faults = faults[8:] {
			s.Faults = append(s.Faults, edge(faults))
		}
		for ; len(schedule) >= 9; schedule = schedule[9:] {
			s.FaultSchedule = append(s.FaultSchedule, sim.FaultEvent{Cycle: int64(int8(schedule[0])), Edge: edge(schedule[1:])})
		}
		if got, want := s.AppendCanonical(nil), refAppendCanonical(&s, nil); !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes differ\n got: %q\nwant: %q", got, want)
		}
		want := refHash(&s)
		if got := s.Hash(); got != want {
			t.Fatalf("Hash() = %s, want %s", got, want)
		}
		if got := s.hashWith(appendFaults(nil, s.Faults)); got != want {
			t.Fatalf("hashWith(appendFaults) = %s, want %s", got, want)
		}
	})
}

// BenchmarkSpecHash is the warm-cache grid point's hashing cost: an 8x8x8
// spec carrying the first n links of a random fault sequence, as the Fig 6
// sweep builds them.
func BenchmarkSpecHash(b *testing.B) {
	seq := topo.RandomFaultSequence(topo.MustHyperX(8, 8, 8), 1)
	for _, n := range []int{0, 50, 200, 500} {
		b.Run(fmt.Sprintf("faults=%d", n), func(b *testing.B) {
			s := baseSpec()
			s.Topo = topo.Spec{Kind: topo.KindHyperX, Dims: []int{8, 8, 8}}
			s.Faults = seq[:n]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s.Hash()
			}
		})
	}
}

// BenchmarkExecuteJobsWarm is a warm re-render of a faulty figure: 2000
// 8x8x8 specs whose faults are the first 0, 50, 200 or 500 links of one
// random sequence, each length one shared slice, all hits in a store on
// disk, through a two-worker pool. ns/point is the grid's time per spec.
func BenchmarkExecuteJobsWarm(b *testing.B) {
	seq := topo.RandomFaultSequence(topo.MustHyperX(8, 8, 8), 1)
	mechs := MechanismNames()
	specs := make([]JobSpec, 2000)
	for i := range specs {
		specs[i] = baseSpec()
		specs[i].Topo = topo.Spec{Kind: topo.KindHyperX, Dims: []int{8, 8, 8}}
		specs[i].Mechanism = mechs[i/4%len(mechs)]
		specs[i].Load = float64(i/4%10+1) / 10
		specs[i].Faults = seq[:[]int{0, 50, 200, 500}[i%4]]
		specs[i].FaultSchedule = nil
		specs[i].Seed = JobSeed(1, i)
	}
	store, err := cache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i := range specs {
		if err := store.Put(specs[i].Hash(), &sim.Result{OfferedLoad: specs[i].Load, Cycles: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	r := Runner{Workers: 2, Cache: store, Execute: func(s *JobSpec) (*sim.Result, error) {
		return nil, fmt.Errorf("%s missed a warm cache", s)
	}}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := r.ExecuteJobs(specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(specs)), "ns/point")
}

// FuzzDecodeSpecJSON: any bytes a job frame may carry as its spec decode to
// an error or to a value that Validate accepts or refuses and Hash
// addresses — never a panic — and a spec that decodes re-encodes to the
// same Hash, so a spec relayed between processes keeps its identity. The
// one known exception is a load of -0: the canonical form pins its bit
// pattern (TestAppendCanonicalMatchesFmtReference) while JSON's omitempty
// sends it as +0, so the target reads it as +0; the canonical bytes can only
// move with the engine version (ROADMAP item 5).
//
// Validate refuses a network past topo.MaxSwitches or maxServers before it
// builds anything (TestSpecSizeBound); below those bounds its cost still
// follows the size the spec declares, so to keep executions fast — not safe
// — the target only validates specs of at most fuzzMaxServers servers;
// larger ones are still hashed and round-tripped.
func FuzzDecodeSpecJSON(f *testing.F) {
	seeds := append(Fig10Grid(Fig10Config{H: tiny3D(), BurstPhits: 160, Seed: 1}).Specs, ckptSpec())
	for _, spec := range seeds {
		data, err := spec.EncodeJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"topo":{"kind":"dragonfly","dims":[4,2]},"per":2,"mechanism":"PolSP","pattern":"Uniform","vcs":4,"load":-0,"budget":{"warmup":1,"measure":2},"faults":[{"U":3,"V":1}],"faultSchedule":[{"Cycle":5,"Edge":{"U":2,"V":0}}],"seed":18446744073709551615,"patternSeed":0}`))
	f.Add([]byte(`{"topo":{"kind":"torus","dims":[3,3]},"per":0,"pattern":"Dimension Complement Reverse"}`))
	f.Add([]byte(`{"topo":{"kind":"hyperx","dims":[]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpecJSON(data)
		if err != nil {
			return
		}
		servers := max(spec.Per, 1)
		for _, k := range spec.Topo.Dims {
			if servers > fuzzMaxServers || k > fuzzMaxServers {
				servers = fuzzMaxServers + 1
				break
			}
			servers *= max(k, 1)
		}
		if servers <= fuzzMaxServers {
			_ = spec.Validate() // either answer; what must not happen is a panic
		}
		if spec.Load == 0 {
			spec.Load = 0 // -0, see above
		}
		want := spec.Hash()
		wire, err := spec.EncodeJSON()
		if err != nil {
			t.Fatalf("a decoded spec does not re-encode: %v", err)
		}
		again, err := DecodeSpecJSON(wire)
		if err != nil {
			t.Fatalf("a re-encoded spec does not decode: %v\n%s", err, wire)
		}
		if got := again.Hash(); got != want {
			t.Fatalf("hash moved across a re-encode: %s then %s\n%s", want, got, wire)
		}
	})
}

// fuzzMaxServers bounds the networks FuzzDecodeSpecJSON builds.
const fuzzMaxServers = 1 << 12

// TestSpecSizeBound: a spec may come off a socket, so the size it declares
// is refused — by Validate and by the run itself, as an error — before a
// topology, a pattern or an engine is sized by it: ROADMAP 4b's
// one-dimension side-2^30 HyperX, and server counts past maxServers
// whatever switches x Per overflows to. The largest network the README
// sizes still validates.
func TestSpecSizeBound(t *testing.T) {
	t.Parallel()
	sized := func(kind string, per int, dims ...int) *JobSpec {
		spec := ckptSpec()
		spec.Topo, spec.Per = topo.Spec{Kind: kind, Dims: dims}, per
		return &spec
	}
	for _, spec := range []*JobSpec{
		sized(topo.KindHyperX, 4, 1<<30),
		sized(topo.KindTorus, 1, topo.MaxSwitches+1),
		sized(topo.KindDragonfly, 1, 1<<31, 1<<31),
		sized(topo.KindHyperX, 0, 4, 4),
		sized(topo.KindHyperX, 65, 32, 32, 32),
		sized(topo.KindHyperX, math.MaxInt/8, 4, 4), // 16 x Per wraps to -16
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s per %d validates", spec.Topo, spec.Per)
		}
		if _, err := (Runner{}).RunSpec(spec); err == nil {
			t.Errorf("%s per %d runs", spec.Topo, spec.Per)
		}
	}
	if err := sized(topo.KindHyperX, 32, 32, 32, 32).Validate(); err != nil {
		t.Errorf("the 32x32x32 cube: %v", err)
	}
}
