package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// allMechanisms names the nine mechanisms buildMech builds.
var allMechanisms = []string{"Minimal", "Valiant", "OmniWAR", "Polarized", "DOR", "DAL", "OmniSP", "PolSP", "EscapeOnly"}

// engineCase is one row of the differential table.
type engineCase struct {
	name string
	// opts builds the run with a fresh network and mechanism on every
	// call: a fault schedule mutates the network it runs on.
	opts func(testing.TB) RunOptions
	// every is the restore column's checkpoint interval in cycles; snaps,
	// when positive, is how many snapshots that interval must ship.
	every int64
	snaps int
}

// with is the case under one execution setting.
func (c engineCase) with(t testing.TB, workers int, fullWalk, audited bool) RunOptions {
	o := c.opts(t)
	o.Workers, o.fullWalk = workers, fullWalk
	if audited {
		if o.Config == (Config{}) {
			o.Config = DefaultConfig()
		}
		o.Config.CheckInvariants = true
	}
	return o
}

// outcome is what the table compares: the Result's binary encoding — the
// byte currency of the cache and the work queue — or the run's error, or
// the panic of a failed audit, so one broken cell does not end the table.
func outcome(o RunOptions) (out string) {
	defer func() {
		if p := recover(); p != nil {
			out = fmt.Sprint("panic: ", p)
		}
	}()
	res, err := Run(o)
	if err != nil {
		return "error: " + err.Error()
	}
	return string(res.AppendBinary(nil))
}

// firstDiff names the first Result field, in declaration order, where got
// departs from want, or quotes the outcome that is not a Result.
func firstDiff(want, got string) string {
	w, errW := DecodeResult([]byte(want))
	g, errG := DecodeResult([]byte(got))
	if errW != nil || errG != nil {
		describe := func(s string, err error) string {
			if err != nil {
				return s
			}
			return "a Result"
		}
		return fmt.Sprintf("want %s, got %s", describe(want, errW), describe(got, errG))
	}
	wv, gv := reflect.ValueOf(*w), reflect.ValueOf(*g)
	for i := range wv.NumField() {
		// Printed, not DeepEqual: a NaN equals itself here.
		a, b := fmt.Sprint(wv.Field(i).Interface()), fmt.Sprint(gv.Field(i).Interface())
		if a != b {
			return fmt.Sprintf("first differing field %s: want %s, got %s", wv.Type().Field(i).Name, a, b)
		}
	}
	return "the encodings differ, the decoded fields do not"
}

// cell is one outcome of a column, labelled when the column has several.
type cell struct{ label, got string }

// engineMode is one column: it runs a case its own way. A column that
// runs alone does so for every row before any row goes parallel.
type engineMode struct {
	name  string
	alone bool
	run   func(t *testing.T, c engineCase) []cell
}

// variant is the column of one setting: workers, the full-walk oracle,
// the CheckInvariants audit.
func variant(workers int, fullWalk, audited bool) func(*testing.T, engineCase) []cell {
	return func(t *testing.T, c engineCase) []cell {
		return []cell{{"", outcome(c.with(t, workers, fullWalk, audited))}}
	}
}

// oversubscribed runs more workers than Ps, the regime where the phase
// barrier takes the minimal spin budget and workers park between phases
// (startPool). It drops GOMAXPROCS to one, so the column oversubscribes on
// any machine although newEngine caps the workers at the switch count;
// GOMAXPROCS is process-wide, so the column runs alone.
func oversubscribed(t *testing.T, c engineCase) []cell {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := c.with(t, 3, false, false)
	if err := o.constructible(); err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	if e.workers <= runtime.GOMAXPROCS(0) {
		t.Fatalf("case %s, mode oversubscribed: %d workers on %d Ps", c.name, e.workers, runtime.GOMAXPROCS(0))
	}
	return []cell{{"", outcome(o)}}
}

// resumeSettings are the (workers, full walk) settings a snapshot resumes
// under: every one but the capturing run's own.
var resumeSettings = []struct {
	workers  int
	fullWalk bool
}{{8, false}, {4, true}, {2, false}, {1, true}, {8, true}, {4, false}, {2, true}}

// restore checkpoints the case every c.every cycles at one worker — that
// run must match too — and resumes each snapshot, audited, in a fresh
// engine under another setting. The interval offsets the settings, so rows
// with few snapshots still meet different ones.
func restore(t *testing.T, c engineCase) []cell {
	var snaps [][]byte
	o := c.opts(t)
	o.Checkpoint = &CheckpointOptions{
		EveryCycles: c.every,
		Sink: func(s []byte) error {
			snaps = append(snaps, s)
			return nil
		},
	}
	cells := []cell{{" (the checkpointing run)", outcome(o)}}
	if c.snaps > 0 && len(snaps) != c.snaps {
		t.Errorf("case %s, mode restore: shipped %d snapshots every %d cycles, want %d", c.name, len(snaps), c.every, c.snaps)
	}
	for i, snap := range snaps {
		s := resumeSettings[(i+int(c.every))%len(resumeSettings)]
		o := c.with(t, s.workers, s.fullWalk, true)
		o.Checkpoint = &CheckpointOptions{Resume: snap}
		label := fmt.Sprintf(" (snapshot %d resumed at workers=%d full-walk=%v)", i, s.workers, s.fullWalk)
		cells = append(cells, cell{label, outcome(o)})
	}
	return cells
}

// engineModes are the table's columns.
var engineModes = []engineMode{
	{name: "workers=2", run: variant(2, false, false)},
	{name: "workers=4", run: variant(4, false, false)},
	{name: "workers=8", run: variant(8, false, false)},
	{name: "oversubscribed", alone: true, run: oversubscribed},
	{name: "full-walk/audited/workers=1", run: variant(1, true, true)},
	{name: "full-walk/audited/workers=4", run: variant(4, true, true)},
	{name: "full-walk/audited/workers=8", run: variant(8, true, true)},
	{name: "audited/workers=4", run: variant(4, false, true)},
	{name: "repeat", run: variant(1, false, false)},
	{name: "restore", run: restore},
}

// modeCell is a cell with the name of its column.
type modeCell struct {
	mode string
	cell
}

// runModes runs c under the columns that run alone, or under the others.
func runModes(t *testing.T, c engineCase, alone bool) []modeCell {
	var cells []modeCell
	for _, m := range engineModes {
		if m.alone == alone {
			for _, cl := range m.run(t, c) {
				cells = append(cells, modeCell{m.name, cl})
			}
		}
	}
	return cells
}

// checkModes runs c under every column not in aloneCells, which hold its
// alone columns, and holds every outcome to a plain one-worker Run's.
func checkModes(t *testing.T, c engineCase, aloneCells []modeCell) {
	t.Parallel()
	results := append(aloneCells, runModes(t, c, false)...)
	ref := outcome(c.opts(t))
	for _, r := range results {
		if r.got != ref {
			t.Errorf("case %s, mode %s%s: %s", c.name, r.mode, r.label, firstDiff(ref, r.got))
		}
	}
}

// TestEngineModesBitIdentical is the engine's determinism contract as one
// table: every case runs under every execution mode — worker counts, an
// oversubscribed engine, the audited full-walk oracle, the audit alone, a
// repeat, and a checkpoint/restore — and must give byte for byte the
// Result, or the error, of a plain one-worker Run of the same case. The
// full walk recomputes every head's candidates, so it also holds the head
// cache to them across mid-run table rebuilds. The rows come in groups by
// what they exercise, and run in parallel once every alone column is done.
//
// The random group comes from quick.Check with a fixed source: its rows
// number 0.05 x -quickchecks (5 by default) and a row's name starts with
// its seed, so -run 'TestEngineModesBitIdentical/random/<seed>' with the
// same -quickchecks replays that row alone.
func TestEngineModesBitIdentical(t *testing.T) {
	groups := engineGroups()
	var random []engineCase
	err := quick.Check(func(seed uint64) bool {
		random = append(random, randomCase(t, seed))
		return true
	}, &quick.Config{Rand: rand.New(rand.NewSource(16)), MaxCountScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	groups = append(groups, engineGroup{"random", random})
	alone := make([][][]modeCell, len(groups))
	for i, g := range groups {
		for _, c := range g.cases {
			alone[i] = append(alone[i], runModes(t, c, true))
		}
	}
	for i, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			for j, c := range g.cases {
				t.Run(c.name, func(t *testing.T) { checkModes(t, c, alone[i][j]) })
			}
		})
	}
}

// engineGroup is a named set of the table's rows.
type engineGroup struct {
	name  string
	cases []engineCase
}

// open4x4 is an open-loop run of mech on the 4x4 with four uniform servers
// per switch, failing the scheduled links on a fresh network each call.
func open4x4(mech string, load float64, warmup, measure int64, seed uint64, faults ...FaultEvent) func(testing.TB) RunOptions {
	h := topo.MustHyperX(4, 4)
	return func(t testing.TB) RunOptions {
		var fs *topo.FaultSet
		if len(faults) > 0 {
			fs = topo.NewFaultSet()
		}
		nw := topo.NewNetwork(h, fs)
		return RunOptions{
			Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, mech, nw), Pattern: uniformOn(t, h, 4),
			Load: load, WarmupCycles: warmup, MeasureCycles: measure, Seed: seed, FaultSchedule: faults,
		}
	}
}

// engineGroups are the table's fixed rows.
func engineGroups() []engineGroup {
	h := topo.MustHyperX(4, 4)
	seq, seq11 := topo.RandomFaultSequence(h, 7), topo.RandomFaultSequence(h, 11)
	twoFaults := func(a, b int64) []FaultEvent {
		return []FaultEvent{{Cycle: a, Edge: seq[0]}, {Cycle: b, Edge: seq[1]}}
	}
	// Every mechanism fault-free, and at a higher load across two table
	// rebuilds, each of which empties the head cache. A mechanism that
	// cannot route around the faults must fail the same way in every mode.
	var mechanisms []engineCase
	for _, name := range allMechanisms {
		mechanisms = append(mechanisms,
			engineCase{name: name + "-0.7", every: 400, snaps: 4, opts: open4x4(name, 0.7, 500, 1500, 42)},
			engineCase{name: name + "-0.9-two-faults", every: 600, opts: open4x4(name, 0.9, 0, 1500, 42, twoFaults(400, 900)...)},
		)
	}
	sharded := []engineCase{
		// Completion-time mode with a throughput series, whose bucketed
		// accumulation crosses the merge step.
		{name: "PolSP-burst-series", every: 400, opts: func(t testing.TB) RunOptions {
			nw := topo.NewNetwork(h, nil)
			pat, err := traffic.NewRandomServerPermutation(h.Switches()*4, 5)
			if err != nil {
				t.Fatal(err)
			}
			return RunOptions{
				Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, "PolSP", nw),
				Pattern: pat, BurstPackets: 12, SeriesBucket: 400, Seed: 17,
			}
		}},
		// Link drains and lost-packet accounting interleaved with the
		// sharded phases; the snapshots fall between and after the faults.
		{name: "OmniSP-mid-run-faults", every: 800, snaps: 3, opts: open4x4("OmniSP", 0.6, 0, 3000, 23, twoFaults(500, 1200)...)},
		{name: "PolSP-0.7-seed-9", every: 400, opts: open4x4("PolSP", 0.7, 300, 1000, 9)},
		{name: "PolSP-0.9-seed-3", every: 600, opts: open4x4("PolSP", 0.9, 500, 1500, 3)},
	}
	// The snapshot counts pin loop's end check before its checkpoint: 1500
	// = 5 x 300 and the burst's 416 = 4 x 104 end on a due snapshot, which
	// must not ship. The second fault pair fails its links two cycles and
	// one cycle before a snapshot, so that one is taken while the receivers
	// behind the dead ports still owe credits to the dead ports' ledger
	// entries.
	checkpoint := []engineCase{
		{name: "snapshotRun-every-350", every: 350, snaps: 4, opts: func(t testing.TB) RunOptions { return snapshotRun(t, h) }},
		{name: "snapshotRun-every-300", every: 300, snaps: 4, opts: func(t testing.TB) RunOptions { return snapshotRun(t, h) }},
		{name: "snapshotBurstRun-every-104", every: 104, snaps: 3, opts: func(t testing.TB) RunOptions { return snapshotBurstRun(t, h) }},
		{name: "snapshotBurstRun-every-200", every: 200, snaps: 2, opts: func(t testing.TB) RunOptions { return snapshotBurstRun(t, h) }},
	}
	for _, at := range [][2]int64{{400, 1300}, {298, 1199}} {
		checkpoint = append(checkpoint, engineCase{
			name: fmt.Sprintf("PolSP-faults-at-%d-%d", at[0], at[1]), every: 300, snaps: 6,
			opts: open4x4("PolSP", 0.7, 0, 2000, 77, twoFaults(at[0], at[1])...),
		})
	}
	h333, h553, h22 := topo.MustHyperX(3, 3, 3), topo.MustHyperX(5, 5, 3), topo.MustHyperX(2, 2)
	seq333, seq553 := topo.RandomFaultSequence(h333, 23), topo.RandomFaultSequence(h553, 13)
	activity := []engineCase{
		// A load so sparse the engine jumps with packets in flight most of
		// the time: the fault cycles bound every jump, so the rebuilt tables
		// take effect at exactly the full walk's cycle.
		{name: "3x3x3-sparse-jump-faults", every: 1000, snaps: 2, opts: func(t testing.TB) RunOptions {
			nw := topo.NewNetwork(h333, topo.NewFaultSet())
			pat, err := traffic.NewRandomServerPermutation(h333.Switches()*2, 23)
			if err != nil {
				t.Fatal(err)
			}
			return RunOptions{
				Net: nw, ServersPerSwitch: 2, Mechanism: buildMech(t, "PolSP", nw), Pattern: pat,
				Load: 0.006, WarmupCycles: 100, MeasureCycles: 2500, Seed: 23,
				FaultSchedule: []FaultEvent{{Cycle: 777, Edge: seq333[0]}, {Cycle: 1234, Edge: seq333[1]}},
			}
		}},
		// P = 2 + 63 > 64 ports: two occupancy-mask words per switch, so
		// the multi-word mask walk meets the full scan.
		{name: "2x2-radix-65-sparse", every: 1000, snaps: 2, opts: func(t testing.TB) RunOptions {
			nw := topo.NewNetwork(h22, nil)
			pat, err := traffic.NewRandomServerPermutation(h22.Switches()*63, 65)
			if err != nil {
				t.Fatal(err)
			}
			return RunOptions{
				Net: nw, ServersPerSwitch: 63, Mechanism: buildMech(t, "PolSP", nw), Pattern: pat,
				Load: 0.015, WarmupCycles: 100, MeasureCycles: 2500, Seed: 65,
			}
		}},
		// 40-phit packets: an event horizon of exactly 64 slots, where a
		// switch's calendar word is full and nextEvent's rotation wraps by a
		// whole word.
		{name: "40-phit-packets", every: 500, snaps: 2, opts: func(t testing.TB) RunOptions {
			h := topo.MustHyperX(3, 3)
			nw := topo.NewNetwork(h, nil)
			cfg := DefaultConfig()
			cfg.PacketPhits = 40
			return RunOptions{
				Net: nw, ServersPerSwitch: 2, Mechanism: buildMech(t, "Valiant", nw), Pattern: uniformOn(t, h, 2),
				Load: 0.5, WarmupCycles: 200, MeasureCycles: 1200, Seed: 40, Config: cfg,
			}
		}},
	}
	// Loaded, bursty and faulty runs whose audited columns recompute every
	// switch's event and queue counts from the ground truth.
	audited := []engineCase{
		{name: "PolSP-0.8-two-faults", every: 500, opts: open4x4("PolSP", 0.8, 200, 1800, 5,
			FaultEvent{Cycle: 400, Edge: seq11[0]}, FaultEvent{Cycle: 900, Edge: seq11[1]})},
		{name: "OmniSP-burst-series-250", every: 150, opts: func(t testing.TB) RunOptions {
			nw := topo.NewNetwork(h, nil)
			return RunOptions{
				Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, "OmniSP", nw), Pattern: uniformOn(t, h, 4),
				BurstPackets: 6, SeriesBucket: 250, Seed: 6,
			}
		}},
		{name: "PolSP-0.4-one-fault", every: 450, opts: open4x4("PolSP", 0.4, 200, 1200, 7, FaultEvent{Cycle: 500, Edge: seq11[2]})},
		// 75 switches: two timing-wheel words per slot, the second partly
		// used, so the due list, the jump scan and the audit's bit count
		// cross a word boundary.
		{name: "5x5x3-wheel-fault", every: 500, snaps: 2, opts: func(t testing.TB) RunOptions {
			nw := topo.NewNetwork(h553, topo.NewFaultSet())
			return RunOptions{
				Net: nw, ServersPerSwitch: 2, Mechanism: buildMech(t, "PolSP", nw), Pattern: uniformOn(t, h553, 2),
				Load: 0.3, WarmupCycles: 200, MeasureCycles: 1200, Seed: 8,
				FaultSchedule: []FaultEvent{{Cycle: 600, Edge: seq553[0]}},
			}
		}},
		{name: "5x5x3-wheel-burst", every: 100, opts: func(t testing.TB) RunOptions {
			nw := topo.NewNetwork(h553, nil)
			return RunOptions{
				Net: nw, ServersPerSwitch: 2, Mechanism: buildMech(t, "OmniSP", nw), Pattern: uniformOn(t, h553, 2),
				BurstPackets: 4, Seed: 9,
			}
		}},
	}
	return []engineGroup{
		{"mechanisms", mechanisms},
		{"sharded", sharded},
		{"checkpoint", checkpoint},
		{"activity", activity},
		{"audited", audited},
	}
}

// randomSpecs are the topologies the random rows draw from: each family,
// in two and three dimensions, small enough for a row to take milliseconds.
var randomSpecs = []topo.Spec{
	{Kind: topo.KindHyperX, Dims: []int{3, 3}},
	{Kind: topo.KindHyperX, Dims: []int{3, 4}},
	{Kind: topo.KindHyperX, Dims: []int{4, 4}},
	{Kind: topo.KindHyperX, Dims: []int{2, 2, 2}},
	{Kind: topo.KindHyperX, Dims: []int{3, 3, 3}},
	{Kind: topo.KindTorus, Dims: []int{4, 4}},
	{Kind: topo.KindTorus, Dims: []int{3, 3, 3}},
	{Kind: topo.KindDragonfly, Dims: []int{4, 2}},
	{Kind: topo.KindDragonfly, Dims: []int{3, 1}},
}

// randomCase draws a row from seed: a topology, a mechanism it supports,
// zero to three static faults that keep it connected plus a two-event
// schedule, and open-loop, burst-with-series or sparse traffic.
func randomCase(t testing.TB, seed uint64) engineCase {
	r := rng.New(seed)
	spec := randomSpecs[r.Intn(len(randomSpecs))]
	tp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	names := allMechanisms
	if spec.Kind != topo.KindHyperX {
		names = []string{"Minimal", "Valiant", "Polarized", "PolSP", "EscapeOnly"}
	}
	name := names[r.Intn(len(names))]
	seq := topo.RandomFaultSequence(tp, seed)
	static := r.Intn(4)
	for static > 0 && !topo.NewNetwork(tp, topo.NewFaultSet(seq[:static]...)).Graph().Connected() {
		static--
	}
	const per = 2
	o := RunOptions{ServersPerSwitch: per, Seed: seed, Config: DefaultConfig()}
	// A burst that a mechanism cannot finish past the faults ends in
	// ErrDeadlock, which every mode must report alike: soon, not after
	// the default 50 000 idle cycles.
	o.Config.WatchdogCycles = 2000
	switch r.Intn(3) {
	case 0: // open loop
		o.Load = 0.1 + 0.8*r.Float64()
		o.WarmupCycles = int64(r.Intn(300))
		o.MeasureCycles = 600 + int64(r.Intn(900))
	case 1: // burst with a throughput series: drains through fast-forward
		o.BurstPackets = 2 + r.Intn(6)
		o.SeriesBucket = 100 + int64(r.Intn(400))
	default:
		// So sparse that most cycles between an injection and its delivery
		// have every switch parked on a future next-work time: the run
		// jumps with packets in flight.
		o.Load = 0.005 + 0.02*r.Float64()
		o.WarmupCycles = int64(r.Intn(200))
		o.MeasureCycles = 2000 + int64(r.Intn(1500))
	}
	// span is the run's length, or about a small burst's: the faults and
	// one to four snapshots fall inside it.
	span := o.WarmupCycles + o.MeasureCycles
	if o.BurstPackets > 0 {
		span = 250
	}
	first := span/10 + int64(r.Intn(int(span/3)))
	o.FaultSchedule = []FaultEvent{
		{Cycle: first, Edge: seq[static]},
		{Cycle: first + 1 + int64(r.Intn(int(span/2))), Edge: seq[static+1]},
	}
	every := span/int64(2+r.Intn(4)) + int64(r.Intn(50))
	return engineCase{
		name:  fmt.Sprintf("%#x-%s-%s", seed, strings.ReplaceAll(spec.String(), " ", ""), name),
		every: every,
		opts: func(t testing.TB) RunOptions {
			nw := topo.NewNetwork(tp, topo.NewFaultSet(seq[:static]...))
			pat, err := traffic.NewRandomServerPermutation(tp.Switches()*per, seed)
			if err != nil {
				t.Fatal(err)
			}
			run := o
			run.Net, run.Mechanism, run.Pattern = nw, buildMech(t, name, nw), pat
			return run
		},
	}
}
