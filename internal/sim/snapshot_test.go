package sim

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/topo"
	"repro/internal/wire"
)

// snapshotRun is the reference configuration of the snapshot unit tests:
// small enough to run in milliseconds, busy enough that a mid-run
// checkpoint holds packets in flight, pending events and releases. Every
// call builds a fresh network and mechanism, so resumed runs cannot share
// mutable state with the run that produced the snapshot.
func snapshotRun(t testing.TB, h *topo.HyperX) RunOptions {
	t.Helper()
	nw := topo.NewNetwork(h, nil)
	return RunOptions{
		Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, "PolSP", nw),
		Pattern: uniformOn(t, h, 4),
		Load:    0.7, WarmupCycles: 300, MeasureCycles: 1200, Seed: 77,
	}
}

// snapshotBurstRun is snapshotRun in completion-time mode: 12 packets per
// server, a throughput series, done at cycle 416.
func snapshotBurstRun(t testing.TB, h *topo.HyperX) RunOptions {
	o := snapshotRun(t, h)
	o.Load, o.WarmupCycles, o.MeasureCycles = 0, 0, 0
	o.BurstPackets = 12
	o.SeriesBucket = 400
	return o
}

// collectSnapshots runs o with periodic cycle checkpoints and returns the
// result bytes plus every shipped snapshot, as its Sink received it.
func collectSnapshots(t testing.TB, o RunOptions, everyCycles int64) ([]byte, [][]byte) {
	t.Helper()
	var snaps [][]byte
	o.Checkpoint = &CheckpointOptions{
		EveryCycles: everyCycles,
		Sink: func(s []byte) error {
			snaps = append(snaps, s)
			return nil
		},
	}
	return runBytes(t, o), snaps
}

// snapshotBody inflates a shipped snapshot and strips its checksum trailer:
// the codec body, where the state-level tests and the fuzz targets start,
// behind the layers only the decoder and the restore checks stand.
func snapshotBody(t testing.TB, snap []byte) []byte {
	t.Helper()
	sealed, err := inflateSnapshot(snap, maxSnapshotBytes)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := wire.Open(sealed)
	if !ok {
		t.Fatal("a shipped snapshot fails its own trailer")
	}
	return body
}

// TestSnapshotBytesGolden pins the hyperx-ckpt/7 bytes themselves: the
// SHA-256 of every snapshot of one fixed run — 4x4 PolSP at load 0.9 with a
// throughput series and one mid-run fault, a snapshot every 250 cycles —
// equals a literal. The digests are of the sealed bytes inside the gzip
// layer a Sink receives: every .ckpt file on disk and every checkpoint frame
// in flight holds this layout, so the literals may only move together with
// SnapshotVersion; never regenerate them from the code under test. Each
// snapshot, as shipped, is compressed — under half its sealed bytes, which
// an uncompressed gzip stream is not — and resumes to the run's own result
// bytes.
func TestSnapshotBytesGolden(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	opts := func() RunOptions {
		nw := topo.NewNetwork(h, topo.NewFaultSet())
		return RunOptions{
			Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, "PolSP", nw),
			Pattern: uniformOn(t, h, 4),
			Load:    0.9, WarmupCycles: 250, MeasureCycles: 2000, Seed: 77,
			SeriesBucket:  200,
			FaultSchedule: []FaultEvent{{Cycle: 1100, Edge: topo.RandomFaultSequence(h, 7)[0]}},
		}
	}
	ref, snaps := collectSnapshots(t, opts(), 250)
	want := []string{
		"a2dbf6a07416ef04b3030468553eaae744800cbf5962d1d74f8148f9da147a25",
		"c23b45adfeb6f5575b57e3b74eb597373b4bbe6fc5487a1b82be6d833508bd89",
		"b20024a9651822456eb051808bc2285a549fbffc66f875397ad0a0a90853ad2b",
		"28c5061c1caa26fd489dd806728cf346a916d356d8f7a6c6e21624b238472ad3",
		"d6251aece21fbbc76a3784707cc7642df1422b444e0611fa70b829ef13cf3da5",
		"58e04405c9de2783e8d29073a72c1bcca1afadc74eff96d8c50091fd8e270864",
		"ce27cd5c13adfaf0d816ce257c88a18d879f6e5202d229e694e963e28347d3f6",
		"7284a128d9b45da848f0f0047bcb2458a1d320997d0f57c08325b83d88617484",
	}
	got := make([]string, len(snaps))
	for i, s := range snaps {
		sealed, err := inflateSnapshot(s, maxSnapshotBytes)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = fmt.Sprintf("%x", sha256.Sum256(sealed))
		if len(s) >= len(sealed)/2 {
			t.Errorf("snapshot %d ships %d bytes for %d sealed: not compressed", i, len(s), len(sealed))
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("snapshot digests moved without a SnapshotVersion bump:\n got %q\nwant %q", got, want)
	}
	for i, snap := range snaps {
		o := opts()
		o.Checkpoint = &CheckpointOptions{Resume: snap}
		if resumed := runBytes(t, o); !bytes.Equal(ref, resumed) {
			t.Errorf("snapshot %d diverged on resume", i)
		}
	}
}

// TestSnapshotInterruptDrain pins the graceful-drain contract: raising
// Interrupt stops the run at the next inter-cycle point with
// ErrCheckpointed and a final snapshot, and resuming that snapshot
// completes to the uninterrupted run's exact bytes.
func TestSnapshotInterruptDrain(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	ref := runBytes(t, snapshotRun(t, h))

	var interrupt atomic.Bool
	interrupt.Store(true)
	var final []byte
	o := snapshotRun(t, h)
	o.Checkpoint = &CheckpointOptions{
		Interrupt: &interrupt,
		Sink: func(s []byte) error {
			final = s
			return nil
		},
	}
	if _, err := Run(o); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("interrupted run returned %v, want ErrCheckpointed", err)
	}
	if final == nil {
		t.Fatal("interrupted run shipped no final snapshot")
	}
	o2 := snapshotRun(t, h)
	o2.Workers = 4
	o2.Checkpoint = &CheckpointOptions{Resume: final}
	if resumed := runBytes(t, o2); !bytes.Equal(ref, resumed) {
		t.Fatal("drain snapshot diverged on resume")
	}
}

// snapshotCycle decodes the cycle a shipped snapshot was captured at.
func snapshotCycle(t *testing.T, snap []byte) int64 {
	t.Helper()
	st, err := decodeSnapshotState(snapshotBody(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	return st.Now
}

// sinkProbe is a Sink that sleeps in every call, so the cycle loop runs on
// while a snapshot ships, and records what the Sink contract is about:
// the calls in flight at once, the calls made and returned, the snapshots
// in arrival order. fail, when set, decides the error of the n-th call
// (1-based).
type sinkProbe struct {
	nap               time.Duration
	fail              func(n int) error
	inflight, maxBusy atomic.Int32
	calls, returned   atomic.Int32
	snaps             [][]byte
}

func (p *sinkProbe) sink(snap []byte) error {
	busy := p.inflight.Add(1)
	defer p.inflight.Add(-1)
	for m := p.maxBusy.Load(); busy > m && !p.maxBusy.CompareAndSwap(m, busy); m = p.maxBusy.Load() {
	}
	n := int(p.calls.Add(1))
	p.snaps = append(p.snaps, snap)
	time.Sleep(p.nap)
	defer p.returned.Add(1)
	if p.fail != nil {
		return p.fail(n)
	}
	return nil
}

// TestSinkOneCallAtATimeInCaptureOrder pins the Sink contract of an
// off-loop ship: at most one call in flight, the snapshots in capture order
// at the cycles a synchronous ship took them (the literals: every 300
// cycles of the 1500-cycle run, the end excluded), and every call returned
// by the time Run does, with none still to come.
func TestSinkOneCallAtATimeInCaptureOrder(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	ref := runBytes(t, snapshotRun(t, h))
	p := &sinkProbe{nap: 5 * time.Millisecond}
	o := snapshotRun(t, h)
	o.Checkpoint = &CheckpointOptions{EveryCycles: 300, Sink: p.sink}
	if got := runBytes(t, o); !bytes.Equal(ref, got) {
		t.Fatal("run with a slow sink diverged from the plain run")
	}
	if n, r := p.calls.Load(), p.returned.Load(); n != r || p.inflight.Load() != 0 {
		t.Fatalf("Run returned with %d sink calls made and %d returned", n, r)
	}
	if m := p.maxBusy.Load(); m != 1 {
		t.Fatalf("%d sink calls ran at once, want 1", m)
	}
	var cycles []int64
	for _, s := range p.snaps {
		cycles = append(cycles, snapshotCycle(t, s))
	}
	if want := []int64{300, 600, 900, 1200}; !slices.Equal(cycles, want) {
		t.Fatalf("snapshots shipped at cycles %v, want %v", cycles, want)
	}
	// A ship started but not yet inside Sink when Run returned would be
	// counted by now.
	time.Sleep(20 * time.Millisecond)
	if n := p.calls.Load(); int(n) != len(cycles) {
		t.Fatalf("%d sink calls after Run returned, %d before", n, len(cycles))
	}
}

// TestSinkErrorAbortsRun: a failing Sink fails the run, though the call
// fails off the loop. The error reaches Run at the next snapshot — which
// is then never shipped — or, when the failing call is the last periodic
// one, when the loop ends; either way Run returns it and no result.
func TestSinkErrorAbortsRun(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	errSink := errors.New("sink: disk full")
	for _, failOn := range []int{2, 4} { // the run ships 4 snapshots
		t.Run(fmt.Sprintf("call-%d-of-4", failOn), func(t *testing.T) {
			p := &sinkProbe{nap: 5 * time.Millisecond, fail: func(n int) error {
				if n == failOn {
					return errSink
				}
				return nil
			}}
			o := snapshotRun(t, h)
			o.Checkpoint = &CheckpointOptions{EveryCycles: 300, Sink: p.sink}
			res, err := Run(o)
			if !errors.Is(err, errSink) || res != nil {
				t.Fatalf("Run = %v, %v; want no result and the sink's error", res, err)
			}
			if n, r := p.calls.Load(), p.returned.Load(); n != int32(failOn) || r != n {
				t.Fatalf("%d sink calls made and %d returned, want %d of each", n, r, failOn)
			}
		})
	}
}

// TestSnapshotInterruptInsideSink: a drain requested while a periodic
// snapshot is still shipping ships the final snapshot through the same
// path once that call has returned, then stops with ErrCheckpointed; the
// final snapshot resumes to the uninterrupted run's bytes. The first
// periodic call raises the drain; the loop sees it at its next iteration
// or, when the Sink goroutine has not run by then, at the latest after the
// second periodic ship, which waits for the first call.
func TestSnapshotInterruptInsideSink(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	ref := runBytes(t, snapshotRun(t, h))
	var interrupt atomic.Bool
	p := &sinkProbe{nap: 20 * time.Millisecond}
	o := snapshotRun(t, h)
	o.Checkpoint = &CheckpointOptions{
		EveryCycles: 300,
		Interrupt:   &interrupt,
		Sink: func(s []byte) error {
			interrupt.Store(true)
			return p.sink(s)
		},
	}
	if _, err := Run(o); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("interrupted run returned %v, want ErrCheckpointed", err)
	}
	n, r := int(p.calls.Load()), int(p.returned.Load())
	if n < 2 || n > 3 || r != n || p.maxBusy.Load() != 1 {
		t.Fatalf("%d sink calls made, %d returned, %d at once; want one or two periodic and the final one, one at a time",
			n, r, p.maxBusy.Load())
	}
	var cycles []int64
	for _, s := range p.snaps {
		cycles = append(cycles, snapshotCycle(t, s))
	}
	if !slices.Equal(cycles[:n-1], []int64{300, 600}[:n-1]) || cycles[n-1] <= cycles[n-2] {
		t.Fatalf("snapshots at cycles %v: want the periodic ones at 300 (and 600), then a later final one", cycles)
	}
	o2 := snapshotRun(t, h)
	o2.Checkpoint = &CheckpointOptions{Resume: p.snaps[n-1]}
	if resumed := runBytes(t, o2); !bytes.Equal(ref, resumed) {
		t.Fatal("final snapshot diverged on resume")
	}
}

// sliceSpan is the memory one slice can reach: its backing array up to
// its capacity.
type sliceSpan struct {
	path   string
	lo, hi uintptr
}

// sliceSpans lists the spans of every slice reachable from v through
// struct fields, pointers and slice elements (maps, interfaces, channels
// and functions are not followed), with a field path for each.
func sliceSpans(v reflect.Value, path string, seen map[uintptr]bool, out []sliceSpan) []sliceSpan {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = sliceSpans(v.Field(i), path+"."+v.Type().Field(i).Name, seen, out)
		}
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return out
		}
		seen[v.Pointer()] = true
		out = sliceSpans(v.Elem(), path, seen, out)
	case reflect.Slice:
		if v.Cap() == 0 {
			return out
		}
		out = append(out, sliceSpan{path, v.Pointer(), v.Pointer() + uintptr(v.Cap())*v.Type().Elem().Size()})
		if reaches(v.Type().Elem(), map[reflect.Type]bool{}) {
			for j := 0; j < v.Len(); j++ {
				out = sliceSpans(v.Index(j), fmt.Sprintf("%s[%d]", path, j), seen, out)
			}
		}
	}
	return out
}

// reaches reports whether a value of type t can hold a slice or a pointer
// that sliceSpans would follow.
func reaches(t reflect.Type, visiting map[reflect.Type]bool) bool {
	if visiting[t] {
		return false
	}
	visiting[t] = true
	switch t.Kind() {
	case reflect.Slice, reflect.Pointer:
		return true
	case reflect.Array:
		return reaches(t.Elem(), visiting)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if reaches(t.Field(i).Type, visiting) {
				return true
			}
		}
	}
	return false
}

// TestCapturedSnapshotSharesNoEngineMemory is the ownership guard of the
// off-loop ship: a capture is encoded while the engine steps on, so no
// slice of a snapshotState may reach memory any slice of the engine
// reaches — its ring sets, calendar slots and per-worker scratch included.
// The capture is taken mid-run on a loaded network, so every array of the
// engine has grown to its working size.
func TestCapturedSnapshotSharesNoEngineMemory(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	o := RunOptions{
		Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, "PolSP", nw),
		Pattern: uniformOn(t, h, 4), Load: 0.9, MeasureCycles: 1000, Seed: 77,
		SeriesBucket: 100, Config: DefaultConfig(),
	}
	e, err := newEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	e.warmStart, e.warmEnd = o.WarmupCycles, o.WarmupCycles+o.MeasureCycles
	e.initArrivals(o.Load)
	for ; e.now < 300; e.now++ {
		e.stepCycle(e.generateArrivals)
	}
	if e.inFlight() == 0 || cap(e.free) == 0 {
		t.Fatalf("capture point holds %d packets and a free list of capacity %d: it no longer covers the case", e.inFlight(), cap(e.free))
	}
	st := e.captureSnapshot(o)

	engine := sliceSpans(reflect.ValueOf(e).Elem(), "engine", map[uintptr]bool{}, nil)
	snap := sliceSpans(reflect.ValueOf(st).Elem(), "snapshotState", map[uintptr]bool{}, nil)
	if len(snap) < 20 {
		t.Fatalf("only %d non-empty slices in the capture: the walk no longer sees the state", len(snap))
	}
	for _, s := range snap {
		for _, g := range engine {
			if s.lo < g.hi && g.lo < s.hi {
				t.Errorf("%s shares its backing array with %s", s.path, g.path)
			}
		}
	}
}

// TestSnapshotRejectsCorrupt locks in the torn-checkpoint defense: a
// truncated file, a flipped byte, a gzip bomb, or a run identity that does
// not match the run must all be rejected with ErrBadSnapshot (so callers
// fall back to a restart from zero), never applied. Damage to the sealed bytes
// behind an intact gzip layer is the checksum trailer's to refuse.
func TestSnapshotRejectsCorrupt(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	_, snaps := collectSnapshots(t, snapshotRun(t, h), 400)
	if len(snaps) == 0 {
		t.Fatal("no snapshots shipped")
	}
	snap := snaps[0]
	reseal := func(mutate func(*snapshotState)) func(*RunOptions, []byte) []byte {
		return func(_ *RunOptions, s []byte) []byte {
			st, err := decodeSnapshotState(snapshotBody(t, s))
			if err != nil {
				t.Fatal(err)
			}
			mutate(st)
			return sealSnapshot(st)
		}
	}
	// Recompressed after the mutation, so only the trailer can refuse it.
	sealed := func(mutate func([]byte) []byte) func(*RunOptions, []byte) []byte {
		return func(_ *RunOptions, s []byte) []byte {
			raw, err := inflateSnapshot(s, maxSnapshotBytes)
			if err != nil {
				t.Fatal(err)
			}
			return gzipAt(t, gzip.BestSpeed, mutate(raw))
		}
	}
	cases := []struct {
		name    string
		trailer bool // the checksum trailer is what refuses it
		mutate  func(o *RunOptions, s []byte) []byte
	}{
		{"truncated", false, func(o *RunOptions, s []byte) []byte { return s[:len(s)/2] }},
		{"tiny", false, func(o *RunOptions, s []byte) []byte { return s[:7] }},
		{"bitflip", false, func(o *RunOptions, s []byte) []byte { s[len(s)/3] ^= 0x40; return s }},
		{"not gzip", false, func(o *RunOptions, s []byte) []byte { return []byte("torn checkpoint") }},
		// 8 MB of zeros in a few KB: under the bound, so it inflates and
		// the trailer refuses it (TestInflateSnapshotBounded: past it).
		{"gzip bomb", true, func(o *RunOptions, s []byte) []byte { return gzipAt(t, gzip.BestSpeed, make([]byte, 8<<20)) }},
		{"sealed truncated", true, sealed(func(b []byte) []byte { return b[:len(b)/2] })},
		{"sealed bitflip", true, sealed(func(b []byte) []byte { b[len(b)/3] ^= 0x40; return b })},
		{"wrong spec hash", false, func(o *RunOptions, s []byte) []byte {
			o.Checkpoint.SpecHash = "deadbeef"
			return s
		}},
		{"wrong seed", false, func(o *RunOptions, s []byte) []byte { o.Seed++; return s }},
		// Re-sealed, so only the identity check can refuse them.
		{"engine hyperx-sim/3", false, reseal(func(st *snapshotState) {
			st.Run = strings.Replace(st.Run, EngineVersion, "hyperx-sim/3", 1)
		})},
	}
	for _, tc := range cases {
		o := snapshotRun(t, h)
		o.Checkpoint = &CheckpointOptions{}
		o.Checkpoint.Resume = tc.mutate(&o, append([]byte(nil), snap...))
		_, err := Run(o)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: resume returned %v, want ErrBadSnapshot", tc.name, err)
		} else if errors.Is(err, ErrSnapshotTrailer) != tc.trailer {
			t.Errorf("%s: refused by %v, want the checksum trailer to be the one refusing: %v", tc.name, err, tc.trailer)
		}
	}
}

// TestSnapshotNamesItsRun: a snapshot resumes under its own run, and under
// a run that differs only in what never moves a result — the worker count,
// the watchdog, the audits, the checkpoint triggers — to the uninterrupted
// run's bytes. A run that differs in one component of its identity refuses
// it with ErrBadSnapshot, and the refusal prints both identity lines, which
// differ in exactly that component's field.
func TestSnapshotNamesItsRun(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	bases := map[string]func() RunOptions{
		"open-loop": func() RunOptions {
			o := snapshotRun(t, h)
			o.SeriesBucket = 200
			o.Config = DefaultConfig()
			o.Checkpoint = &CheckpointOptions{SpecHash: "5e3a"}
			return o
		},
		"burst": func() RunOptions {
			o := snapshotBurstRun(t, h)
			o.Config = DefaultConfig()
			o.Checkpoint = &CheckpointOptions{SpecHash: "5e3a"}
			return o
		},
	}
	refs, snaps := map[string][]byte{}, map[string][]byte{}
	for name, base := range bases {
		o := base()
		refs[name] = runBytes(t, o)
		o.Checkpoint.EveryCycles = 200
		o.Checkpoint.Sink = func(s []byte) error {
			if snaps[name] == nil {
				snaps[name] = s
			}
			return nil
		}
		runBytes(t, o)
		if snaps[name] == nil {
			t.Fatalf("%s: no snapshot shipped", name)
		}
	}

	for _, tc := range []struct {
		base, name string
		change     func(o *RunOptions)
	}{
		{"open-loop", "workers", func(o *RunOptions) { o.Workers = 4 }},
		{"open-loop", "watchdog", func(o *RunOptions) { o.Config.WatchdogCycles = 7 * o.Config.WatchdogCycles }},
		{"open-loop", "audits", func(o *RunOptions) { o.Config.CheckInvariants = true }},
		{"open-loop", "checkpoint triggers", func(o *RunOptions) {
			o.Checkpoint.EveryCycles, o.Checkpoint.Every = 150, time.Hour
			o.Checkpoint.Sink = func([]byte) error { return nil }
		}},
		{"burst", "workers", func(o *RunOptions) { o.Workers = 4 }},
		{"burst", "watchdog", func(o *RunOptions) { o.Config.WatchdogCycles = 0 }},
		{"burst", "audits", func(o *RunOptions) { o.Config.CheckInvariants = true }},
	} {
		o := bases[tc.base]()
		tc.change(&o)
		o.Checkpoint.Resume = snaps[tc.base]
		if got := runBytes(t, o); !bytes.Equal(got, refs[tc.base]) {
			t.Errorf("%s resumed under other %s: the result differs from the uninterrupted run's", tc.base, tc.name)
		}
	}

	ulp := func(f float64) float64 { return math.Nextafter(f, math.Inf(1)) }
	for _, tc := range []struct {
		base, name string
		change     func(o *RunOptions)
	}{
		{"open-loop", "seed", func(o *RunOptions) { o.Seed++ }},
		{"open-loop", "spec hash", func(o *RunOptions) { o.Checkpoint.SpecHash = "5e3b" }},
		{"open-loop", "load", func(o *RunOptions) { o.Load = ulp(o.Load) }},
		{"open-loop", "warmup", func(o *RunOptions) { o.WarmupCycles++ }},
		{"open-loop", "measure", func(o *RunOptions) { o.MeasureCycles++ }},
		{"open-loop", "series bucket", func(o *RunOptions) { o.SeriesBucket++ }},
		{"open-loop", "no series", func(o *RunOptions) { o.SeriesBucket = 0 }},
		{"open-loop", "InputBufPkts", func(o *RunOptions) { o.Config.InputBufPkts++ }},
		{"open-loop", "OutputBufPkts", func(o *RunOptions) { o.Config.OutputBufPkts++ }},
		{"open-loop", "PacketPhits", func(o *RunOptions) { o.Config.PacketPhits++ }},
		{"open-loop", "LinkLatency", func(o *RunOptions) { o.Config.LinkLatency++ }},
		{"open-loop", "XbarLatency", func(o *RunOptions) { o.Config.XbarLatency++ }},
		{"open-loop", "XbarSpeedup", func(o *RunOptions) { o.Config.XbarSpeedup++ }},
		{"open-loop", "InjQueuePkts", func(o *RunOptions) { o.Config.InjQueuePkts++ }},
		{"open-loop", "PenaltyWeight", func(o *RunOptions) { o.Config.PenaltyWeight = ulp(o.Config.PenaltyWeight) }},
		{"burst", "burst size", func(o *RunOptions) { o.BurstPackets-- }},
		{"burst", "burst MaxCycles", func(o *RunOptions) { o.MaxCycles = 5000 }},
	} {
		o := bases[tc.base]()
		was := strings.Fields(runIdentity(o))
		tc.change(&o)
		now := strings.Fields(runIdentity(o))
		differ := 0
		for i := range min(len(was), len(now)) {
			if was[i] != now[i] {
				differ++
			}
		}
		if len(was) != len(now) || differ != 1 {
			t.Errorf("%s, other %s: the identity lines differ in %d fields, want one:\n%q\n%q", tc.base, tc.name, differ, was, now)
		}
		o.Checkpoint.Resume = snaps[tc.base]
		_, err := Run(o)
		if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), strings.Join(now, " ")) {
			t.Errorf("%s resumed under other %s: %v, want ErrBadSnapshot naming this run", tc.base, tc.name, err)
		}
	}
}

// gzipAt compresses data at a gzip level of the caller's choosing.
func gzipAt(t testing.TB, level int, data []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	zw, err := gzip.NewWriterLevel(&b, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestInflateSnapshotBounded: a gzip stream that inflates past the bound is
// damage — ErrBadSnapshot, the run restarts from zero — however few bytes
// it arrives in, and so are a stream that is not gzip, a torn one and
// nothing at all; one of exactly the bound reads back whole. Any gzip level
// reads back, not only sealSnapshot's: a snapshot written at the default
// level, as a checkpoint of an older store was, resumes to the run's bytes.
func TestInflateSnapshotBounded(t *testing.T) {
	const limit = 4 << 10
	pack := func(n int) []byte { return gzipAt(t, gzip.BestSpeed, make([]byte, n)) }
	bomb := pack(64 * limit)
	if len(bomb) > limit/4 {
		t.Fatalf("the bomb is %d compressed bytes: not much of a bomb", len(bomb))
	}
	whole := pack(limit)
	for _, tc := range []struct {
		name string
		snap []byte
	}{
		{"bomb", bomb},
		{"one byte past the bound", pack(limit + 1)},
		{"not gzip", []byte("torn checkpoint")},
		{"torn", whole[:len(whole)-6]},
		{"empty", nil},
	} {
		if got, err := inflateSnapshot(tc.snap, limit); !errors.Is(err, ErrBadSnapshot) || got != nil {
			t.Errorf("%s: inflated to %d bytes (err %v), want ErrBadSnapshot", tc.name, len(got), err)
		}
	}
	if got, err := inflateSnapshot(whole, limit); err != nil || len(got) != limit {
		t.Errorf("a snapshot of exactly the bound came back as %d bytes (err %v)", len(got), err)
	}
	if got, err := inflateSnapshot(pack(limit+1), maxSnapshotBytes); err != nil || len(got) != limit+1 {
		t.Errorf("restore's bound refused %d bytes: %v", limit+1, err)
	}
	data := []byte(strings.Repeat("engine-state", 100))
	for _, level := range []int{gzip.NoCompression, gzip.DefaultCompression, gzip.BestCompression} {
		if got, err := inflateSnapshot(gzipAt(t, level, data), limit); err != nil || !bytes.Equal(got, data) {
			t.Errorf("level %d: round trip failed (err %v)", level, err)
		}
	}

	h := topo.MustHyperX(4, 4)
	ref, snaps := collectSnapshots(t, snapshotRun(t, h), 400)
	sealed, err := inflateSnapshot(snaps[0], maxSnapshotBytes)
	if err != nil {
		t.Fatal(err)
	}
	o := snapshotRun(t, h)
	o.Checkpoint = &CheckpointOptions{Resume: gzipAt(t, gzip.DefaultCompression, sealed)}
	if resumed := runBytes(t, o); !bytes.Equal(ref, resumed) {
		t.Error("a snapshot written at the default gzip level diverged on resume")
	}
}

// fillSnapshotDistinct sets every field of a snapshot struct to a distinct
// non-zero value, recursing into nested structs and slices (of primitives
// and of structs), so a field the codec drops or cross-wires fails the
// round trip. Narrow integer kinds get small values: reflect.SetInt
// silently truncates, which would alias fields instead of distinguishing
// them. A field kind the filler does not know fails the test — a new kind
// must extend both the codec and this filler.
func fillSnapshotDistinct(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			// A field of an engine element type (packet, event, arrival):
			// reflect reads an unexported field but sets it only through
			// its address.
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		}
		*next++
		switch f.Kind() {
		case reflect.Struct:
			fillSnapshotDistinct(t, f, next)
		case reflect.Float64:
			f.SetFloat(float64(*next) + 1/float64(*next+7))
		case reflect.Int64, reflect.Int32:
			f.SetInt(1000 + *next)
		case reflect.Int16:
			f.SetInt(100 + *next%100)
		case reflect.Int8:
			f.SetInt(1 + *next%100)
		case reflect.Uint64:
			f.SetUint(uint64(2000 + *next))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(fmt.Sprintf("field-%d", *next))
		case reflect.Slice:
			s := reflect.MakeSlice(f.Type(), 2, 2)
			for j := 0; j < s.Len(); j++ {
				el := s.Index(j)
				switch el.Kind() {
				case reflect.Struct:
					fillSnapshotDistinct(t, el, next)
				case reflect.Int64, reflect.Int32:
					*next++
					el.SetInt(1000 + *next)
				case reflect.Int16:
					*next++
					el.SetInt(100 + *next%100)
				case reflect.Int8:
					*next++
					el.SetInt(1 + *next%100)
				case reflect.Uint64:
					*next++
					el.SetUint(uint64(2000 + *next))
				case reflect.Bool:
					el.SetBool(true)
				default:
					t.Fatalf("field %s: slice of %s not handled by fillSnapshotDistinct — extend the filler and the codec",
						v.Type().Field(i).Name, el.Kind())
				}
			}
			f.Set(s)
		default:
			t.Fatalf("field %s: kind %s not handled by fillSnapshotDistinct — extend the filler and the codec",
				v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestSnapshotCodecCoversEveryField is the runtime half of the snapshot
// codeccoverage contract (the analyzer proves both halves mention every
// field; this proves the bytes carry them): a reflection-filled
// snapshotState — every field, including those of the engine's packet,
// event and arrival elements, set to a distinct value — must round-trip
// bit-exactly through the binary codec.
func TestSnapshotCodecCoversEveryField(t *testing.T) {
	st := &snapshotState{}
	next := int64(0)
	fillSnapshotDistinct(t, reflect.ValueOf(st).Elem(), &next)
	got, err := decodeSnapshotState(appendSnapshotState(nil, st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("reflection-filled round trip mismatch — a field is missing or cross-wired in the snapshot codec:\nencoded: %+v\ndecoded: %+v", st, got)
	}
}

// TestSnapshotCodecErrors pins the decode rejection paths.
func TestSnapshotCodecErrors(t *testing.T) {
	if _, err := decodeSnapshotState(nil); !errors.Is(err, ErrBadSnapshot) {
		t.Error("empty buffer accepted")
	}
	st := &snapshotState{Run: EngineVersion, GenRNG: []uint64{1, 2, 3, 4}}
	enc := appendSnapshotState(nil, st)
	if _, err := decodeSnapshotState(enc[:len(enc)-1]); !errors.Is(err, ErrBadSnapshot) {
		t.Error("truncated buffer accepted")
	}
	if _, err := decodeSnapshotState(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrBadSnapshot) {
		t.Error("trailing bytes accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := decodeSnapshotState(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Error("wrong codec version accepted")
	}
}

// TestSnapshotRejectsInconsistentState: a snapshot behind a valid checksum
// whose state could not have come from an engine is refused with
// ErrBadSnapshot, never resumed. Two layers, in restore order. What the
// resumed run would index with unchecked — packet ids in rings, on the free
// list and on the wheel, event kinds and targets, output-buffer VCs,
// arrival servers and cycles — and what it would resume into another run's
// rows with — a negative counter, a throughput series past the restored
// cycle, ending in an empty bucket or counting part of a packet, or one the
// run does not keep — is refused before anything is installed. What breaks a
// flow-control bound once installed — a credit its receiver has no slot
// for, a credit spent with no packet behind it, a calendar whose transfers
// push the counts rebuildDerived takes from it past the speedup or an
// output buffer past its capacity — is refused by the port audit that
// follows rebuildDerived; that engine is garbage, and Run hands none back.
// The untouched snapshot passes both, and is refused under a schedule with
// a fault before its cycle that the restore's replay cannot apply.
func TestSnapshotRejectsInconsistentState(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	// snapshotRun with a link failure scheduled after the first snapshot
	// and a throughput series whose fourth bucket ends at that snapshot.
	run := func() RunOptions {
		o := snapshotRun(t, h)
		o.Net = topo.NewNetwork(h, topo.NewFaultSet())
		o.Mechanism = buildMech(t, "PolSP", o.Net)
		o.FaultSchedule = []FaultEvent{{Cycle: 1000, Edge: topo.RandomFaultSequence(h, 7)[0]}}
		o.SeriesBucket = 100
		return o
	}
	_, snaps := collectSnapshots(t, run(), 400)
	if len(snaps) == 0 {
		t.Fatal("no snapshots shipped")
	}
	body := snapshotBody(t, snaps[0])
	firstEvent := func(st *snapshotState, kind int8) int {
		for i := range st.Events {
			if st.Events[i].kind == kind {
				return i
			}
		}
		t.Fatalf("no event of kind %d on the wheel: the snapshot no longer covers that case", kind)
		return 0
	}
	// pileOn puts n more copies of the first event of a kind in its slot.
	pileOn := func(st *snapshotState, kind int8, n int) {
		i := firstEvent(st, kind)
		for slot, end := 0, 0; ; slot++ {
			if end += int(st.EventLens[slot]); i < end {
				st.EventLens[slot] += int32(n)
				break
			}
		}
		st.Events = slices.Insert(st.Events, i, slices.Repeat(st.Events[i:i+1], n)...)
	}
	cfg := DefaultConfig()
	// The run's shape, which the snapshot's array lengths pin.
	so := run()
	so.Config = cfg
	shape, err := newEngine(so)
	if err != nil {
		t.Fatal(err)
	}
	other := so
	other.Load = math.Nextafter(so.Load, 1)
	cases := []struct {
		name    string
		audited bool // refused by the port audit, after the install
		mutate  func(st *snapshotState)
	}{
		{"intact", false, func(st *snapshotState) {}},
		{"negative cycle", false, func(st *snapshotState) { st.Now = -1 }},
		{"zeroed RNG stream", false, func(st *snapshotState) { clear(st.TieRNG[4:8]) }},
		{"queued id past the pool", false, func(st *snapshotState) { st.InQData[0] = int32(len(st.Pool)) }},
		{"negative id in an output buffer", false, func(st *snapshotState) { st.OutQPkt[0] = -1 }},
		{"free id past the pool", false, func(st *snapshotState) { st.Free = append(st.Free, int32(len(st.Pool))) }},
		{"more free than pooled", false, func(st *snapshotState) {
			for len(st.Free) <= len(st.Pool) {
				st.Free = append(st.Free, 0)
			}
		}},
		{"output-buffer VC past V", false, func(st *snapshotState) { st.OutQVC[0] = int8(shape.V) }},
		{"unknown event kind", false, func(st *snapshotState) { st.Events[0].kind = evDeliver + 1 }},
		{"event packet past the pool", false, func(st *snapshotState) { st.Events[firstEvent(st, evArrive)].pkt = int32(len(st.Pool)) }},
		{"arrival on another switch", false, func(st *snapshotState) { st.Events[firstEvent(st, evArrive)].a += int32(shape.P * shape.V) }},
		{"transfer into another switch", false, func(st *snapshotState) { st.Events[firstEvent(st, evXferDone)].a += int32(shape.P) }},
		{"transfer on VC past V", false, func(st *snapshotState) { st.Events[firstEvent(st, evXferDone)].vc = int8(shape.V) }},
		{"series bucket past the restored cycle", false, func(st *snapshotState) { st.Series = append(st.Series, int64(cfg.PacketPhits)) }},
		{"series ending in an empty bucket", false, func(st *snapshotState) { st.Series[len(st.Series)-1] = 0 }},
		{"negative series count", false, func(st *snapshotState) { st.Series[0] = -st.Series[0] }},
		{"series count of part of a packet", false, func(st *snapshotState) { st.Series[0]++ }},
		{"negative lost count", false, func(st *snapshotState) { st.LostPkts = -5 }},
		{"negative stalled count", false, func(st *snapshotState) { st.StalledGenPkts = -1 }},
		{"negative generated phits", false, func(st *snapshotState) { st.GenPhits[0] = -int64(cfg.PacketPhits) }},
		{"negative delivered count", false, func(st *snapshotState) { st.Win[0].deliveredPkts = -1 }},
		{"negative latency sum", false, func(st *snapshotState) { st.Win[0].latencySum = -1e6 }},
		{"negative hop sum after positive ones", false, func(st *snapshotState) { st.Win[len(st.Win)-1].hopSum = -1 }},
		{"negative escaped count", false, func(st *snapshotState) { st.Win[0].escapedPkts = -1 }},
		{"negative link-busy count", false, func(st *snapshotState) { st.Win[0].linkBusy = -1 }},
		{"latency sums that wrap", false, func(st *snapshotState) {
			st.Win[0].latencySum, st.Win[1].latencySum = math.MaxInt64, 1
		}},
		{"offered load of another run", false, func(st *snapshotState) { st.Run = runIdentity(other) }},
		{"arrival for a server past the run's", false, func(st *snapshotState) { st.ArrQ[0].server = int32(len(st.ArrQ)) }},
		{"arrival calendar lists a server twice", false, func(st *snapshotState) { st.ArrQ[1].server = st.ArrQ[0].server }},
		{"arrival calendar out of heap order", false, func(st *snapshotState) { st.ArrQ[1].at = st.ArrQ[0].at - 1 }},
		{"arrival before the restored cycle", false, func(st *snapshotState) { st.ArrQ[0].at = st.Now - 5 }},
		{"packet bound for a switch past the network's", false, func(st *snapshotState) { st.Pool[st.InQData[0]].st.Dst = int32(shape.S) }},
		{"packet bound for a server past its switch's", false, func(st *snapshotState) { st.Pool[st.InQData[0]].dstLocal = int16(shape.K) }},
		{"packet with a negative hop count", false, func(st *snapshotState) { st.Pool[st.InQData[0]].st.Hops = -1 }},

		{"credit without slot", true, func(st *snapshotState) { st.Credits[0] = int16(cfg.InputBufPkts) + 1 }},
		{"negative credit", true, func(st *snapshotState) { st.Credits[0] = -1 }},
		{"credit spent with no packet behind it", true, func(st *snapshotState) {
			i := slices.Index(st.Credits, int16(cfg.InputBufPkts)) // an idle output VC
			st.Credits[i]--
		}},
		// The counts rebuildDerived takes off the calendar: a transfer
		// into one port, or out of one, past the speedup, and an output
		// with more packets crossing into it than it has slots.
		{"third transfer into a port", true, func(st *snapshotState) { pileOn(st, evXferDone, cfg.XbarSpeedup) }},
		{"third transfer out of a port", true, func(st *snapshotState) { pileOn(st, evCredit, cfg.XbarSpeedup) }},
		{"output past its capacity", true, func(st *snapshotState) { pileOn(st, evXferDone, cfg.OutputBufPkts) }},
	}
	for _, tc := range cases {
		st, err := decodeSnapshotState(body)
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(st)
		o := run()
		o.Config = cfg
		e, err := newEngine(o)
		if err != nil {
			t.Fatal(err)
		}
		e.warmStart, e.warmEnd = o.WarmupCycles, o.WarmupCycles+o.MeasureCycles
		err = e.applySnapshot(st, o)
		if tc.name == "intact" {
			if err != nil || e.now != st.Now {
				t.Fatalf("intact snapshot: applySnapshot = %v, now %d", err, e.now)
			}
			continue
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: applySnapshot returned %v, want ErrBadSnapshot", tc.name, err)
		}
		if tc.audited != (err != nil && strings.Contains(err.Error(), "port audit")) {
			t.Errorf("%s: refused by %v, want the port audit to be the one refusing: %v", tc.name, err, tc.audited)
		}
		if !tc.audited && (e.now != 0 || len(e.pool) != 0 || e.queuedPackets(0) != 0) {
			t.Errorf("%s: the refused snapshot was partly installed (now %d, pool %d)", tc.name, e.now, len(e.pool))
		}
		// The same bytes through the public path: re-sealed, so only the
		// consistency checks can refuse them.
		o = run()
		o.Checkpoint = &CheckpointOptions{Resume: sealSnapshot(st)}
		if _, err := Run(o); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: Run resumed it: %v", tc.name, err)
		}
	}

	// A series only where the run keeps one: the state resumed under the
	// run without a bucket, its identity line rewritten to match, is
	// refused.
	{
		bare := func() RunOptions {
			o := run()
			o.SeriesBucket = 0
			return o
		}
		st, err := decodeSnapshotState(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Series) == 0 {
			t.Fatal("the snapshot holds no series: it no longer covers the case")
		}
		o := bare()
		o.Config = cfg
		st.Run = runIdentity(o)
		e, err := newEngine(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.applySnapshot(st, o); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "keeps none") {
			t.Errorf("series under a run without one: applySnapshot returned %v, want ErrBadSnapshot from the series check", err)
		}
		o = bare()
		o.Checkpoint = &CheckpointOptions{Resume: sealSnapshot(st)}
		if _, err := Run(o); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("series under a run without one: Run resumed it: %v", err)
		}
	}

	// The fault cursor is not in the format: a restore replays the faults
	// its own schedule puts before Now. An intact snapshot resumed under a
	// schedule whose early faults do not replay is refused, not a panic.
	seq := topo.RandomFaultSequence(h, 7)
	for _, tc := range []struct {
		name     string
		schedule []FaultEvent
	}{
		{"fault before the capture names a non-link", []FaultEvent{{Cycle: 100, Edge: topo.NewEdge(h.ID([]int{0, 0}), h.ID([]int{1, 1}))}}},
		{"fault before the capture names a failed link", []FaultEvent{{Cycle: 100, Edge: seq[0]}, {Cycle: 200, Edge: seq[0]}}},
		{"fault before the capture names a switch outside the network", []FaultEvent{{Cycle: 100, Edge: topo.Edge{U: 0, V: int32(shape.S)}}}},
	} {
		st, err := decodeSnapshotState(body)
		if err != nil {
			t.Fatal(err)
		}
		o := run()
		o.Config = cfg
		o.FaultSchedule = tc.schedule
		e, err := newEngine(o)
		if err != nil {
			t.Fatal(err)
		}
		e.warmStart, e.warmEnd = o.WarmupCycles, o.WarmupCycles+o.MeasureCycles
		if err := e.applySnapshot(st, o); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "do not replay") {
			t.Errorf("%s: applySnapshot returned %v, want ErrBadSnapshot from the fault replay", tc.name, err)
		}
		o = run()
		o.FaultSchedule = tc.schedule
		o.Checkpoint = &CheckpointOptions{Resume: snaps[0]}
		if _, err := Run(o); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: Run resumed it: %v", tc.name, err)
		}
	}
}

// derivedState is every engine word a restore rebuilds instead of reading:
// what rebuildDerived writes, the fault cursor and the dead ports that the
// markLinkDead replay of the faults before Now writes, and the arrival
// sampling constant.
type derivedState struct {
	PQ                       []portq
	InMask, OutMask, InjMask []uint64
	EvMask                   []uint64
	InInflight               []int8
	OutVCCount               []int16
	FaultCursor              int
	PortDead                 []bool
	LogOneMinusGenProb       float64
}

func (e *engine) derivedState() derivedState {
	return derivedState{
		PQ: slices.Clone(e.pq), InMask: slices.Clone(e.inMask), OutMask: slices.Clone(e.outMask),
		InjMask: slices.Clone(e.injMask), EvMask: slices.Clone(e.evMask),
		InInflight: slices.Clone(e.inInflight), OutVCCount: slices.Clone(e.outVCCount),
		FaultCursor: e.nextFault, PortDead: slices.Clone(e.portDead),
		LogOneMinusGenProb: e.logOneMinusGenProb,
	}
}

// TestRestoreRebuildsDerivedState is the engine-to-engine statement of the
// format's primary-state rule: none of the derived words travel (the calendar words
// and the crossbar counts included), and after a restore every one of them
// equals the capturing engine's at the capture point —
// with and without a replayed fault, with one occupancy-mask word per
// switch (P <= 64) and with two (P > 64). The capturing engine is ticked by
// hand, cycle by cycle, so the test holds it at the capture point.
func TestRestoreRebuildsDerivedState(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	seq := topo.RandomFaultSequence(h, 7)
	for _, tc := range []struct {
		name    string
		servers int // per switch: 60 makes P = 6 + 60 > 64
		words   int // occupancy-mask words per switch
		faults  []FaultEvent
	}{
		{"P<=64", 4, 1, nil},
		{"P<=64/fault-replayed", 4, 1, []FaultEvent{{Cycle: 300, Edge: seq[0]}, {Cycle: 900, Edge: seq[1]}}},
		{"P>64", 60, 2, nil},
		{"P>64/fault-replayed", 60, 2, []FaultEvent{{Cycle: 300, Edge: seq[0]}, {Cycle: 900, Edge: seq[1]}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*engine, RunOptions) {
				nw := topo.NewNetwork(h, topo.NewFaultSet())
				o := RunOptions{
					Net: nw, ServersPerSwitch: tc.servers, Mechanism: buildMech(t, "PolSP", nw),
					Pattern: uniformOn(t, h, tc.servers),
					Load:    0.9, MeasureCycles: 1000, Seed: 77, Config: DefaultConfig(),
					FaultSchedule: tc.faults,
				}
				e, err := newEngine(o)
				if err != nil {
					t.Fatal(err)
				}
				e.warmStart, e.warmEnd = o.WarmupCycles, o.WarmupCycles+o.MeasureCycles
				return e, o
			}
			src, o := build()
			if src.maskWords != tc.words {
				t.Fatalf("P = %d: %d mask words per switch, want %d", src.P, src.maskWords, tc.words)
			}
			src.initArrivals(o.Load)
			for ; src.now < 304; src.now++ { // four cycles past the first fault
				if err := src.applyDueFaults(); err != nil {
					t.Fatal(err)
				}
				src.stepCycle(src.generateArrivals)
				src.verifyInvariants() // the audit's statement of the identities, every cycle
			}
			want := src.derivedState()
			pending := slices.ContainsFunc(want.EvMask, func(m uint64) bool { return m != 0 })
			crossing := slices.ContainsFunc(want.InInflight, func(n int8) bool { return n != 0 })
			if src.inFlight() == 0 || !pending || !crossing || (len(tc.faults) > 0) != slices.Contains(want.PortDead, true) {
				t.Fatalf("capture point holds %d packets, pending events %v, crossbar transfers %v, dead port %v: it no longer covers the case",
					src.inFlight(), pending, crossing, slices.Contains(want.PortDead, true))
			}
			// Server bits sit in the last mask word of a switch too: with
			// two words, some switch's servers past port 63 hold packets.
			lastWordSet := false
			for w := tc.words - 1; w < len(want.InjMask); w += tc.words {
				lastWordSet = lastWordSet || want.InjMask[w] != 0
			}
			if !lastWordSet {
				t.Fatal("no injection bit in a switch's last mask word: the capture no longer covers the case")
			}

			dst, o2 := build()
			if err := dst.restoreSnapshot(sealSnapshot(src.captureSnapshot(o)), o2); err != nil {
				t.Fatal(err)
			}
			if got := dst.derivedState(); !reflect.DeepEqual(got, want) {
				t.Errorf("restored derived state differs from the capturing engine's:\n got %+v\nwant %+v", got, want)
			}
			dead := 0
			for _, d := range want.PortDead {
				if d {
					dead++
				}
			}
			if got := o2.Net.Faults.Len(); 2*got != dead {
				t.Errorf("restore replayed %d faults into the network, the capturing engine had %d dead ports", got, dead)
			}
		})
	}
}
