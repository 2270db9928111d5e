package sim

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

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

// collectSnapshots runs o with periodic cycle checkpoints and returns the
// result bytes plus every shipped snapshot.
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

// TestSnapshotResumeBitIdentical is the core restore contract on a single
// configuration: run-to-cycle-C, snapshot, restore in a fresh engine —
// under a different worker count and the opposite activity setting — and
// run to the end; the Result codec bytes must equal the uninterrupted
// run's, for every shipped snapshot.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	ref := runBytes(t, snapshotRun(t, h))
	got, snaps := collectSnapshots(t, snapshotRun(t, h), 350)
	if !bytes.Equal(ref, got) {
		t.Fatal("run with periodic checkpoints diverged from the plain run")
	}
	if len(snaps) < 2 {
		t.Fatalf("expected several snapshots, got %d", len(snaps))
	}
	for i, snap := range snaps {
		for _, workers := range []int{1, 4, 8} {
			for _, noAct := range []bool{false, true} {
				o := snapshotRun(t, h)
				o.Workers = workers
				o.fullWalk = noAct
				o.Checkpoint = &CheckpointOptions{Resume: snap}
				if resumed := runBytes(t, o); !bytes.Equal(ref, resumed) {
					t.Fatalf("snapshot %d resumed at workers=%d activity=%v diverged", i, workers, !noAct)
				}
			}
		}
	}
}

// TestSnapshotResumeMidRunFaults pins the fault-schedule path: a snapshot
// taken between two scheduled link failures must restore the drained ports,
// the lost-packet accounting and the fault cursor, and replay the already-
// applied edge into the fresh network before resuming. The second schedule
// fails its links two cycles and one cycle before a snapshot, so that one
// is taken while the receivers behind the dead ports still owe credits to
// the dead ports' ledger entries; every resume runs audited, at the
// capturing run's worker count and at another.
func TestSnapshotResumeMidRunFaults(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	seq := topo.RandomFaultSequence(h, 7)
	for _, failAt := range [][2]int64{{400, 1300}, {298, 1199}} {
		opts := func() RunOptions {
			// Each run mutates its network's fault set, so every run — the
			// reference, the checkpointing run and each resume — gets a fresh
			// network and mechanism.
			nw := topo.NewNetwork(h, topo.NewFaultSet())
			return RunOptions{
				Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, "PolSP", nw),
				Pattern: uniformOn(t, h, 4),
				Load:    0.7, WarmupCycles: 0, MeasureCycles: 2000, Seed: 77,
				FaultSchedule: []FaultEvent{
					{Cycle: failAt[0], Edge: seq[0]},
					{Cycle: failAt[1], Edge: seq[1]},
				},
			}
		}
		ref := runBytes(t, opts())
		_, snaps := collectSnapshots(t, opts(), 300)
		if len(snaps) < 3 {
			t.Fatalf("expected several snapshots, got %d", len(snaps))
		}
		for i, snap := range snaps {
			for _, workers := range []int{1, 4} {
				o := opts()
				o.Workers = workers
				o.Config = DefaultConfig()
				o.Config.CheckInvariants = true
				o.Checkpoint = &CheckpointOptions{Resume: snap}
				if resumed := runBytes(t, o); !bytes.Equal(ref, resumed) {
					t.Fatalf("faults at %v: snapshot %d resumed at workers=%d diverged", failAt, i, workers)
				}
			}
		}
	}
}

// TestSnapshotResumeBurst covers completion-time mode: the preload must be
// skipped on resume (the remaining burst lives in the serialized queues)
// and the completion cycle must match the uninterrupted run.
func TestSnapshotResumeBurst(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	opts := func() RunOptions {
		o := snapshotRun(t, h)
		o.Load, o.WarmupCycles, o.MeasureCycles = 0, 0, 0
		o.BurstPackets = 12
		o.SeriesBucket = 400
		return o
	}
	ref := runBytes(t, opts())
	_, snaps := collectSnapshots(t, opts(), 200)
	if len(snaps) == 0 {
		t.Fatal("burst run shipped no snapshots")
	}
	for i, snap := range snaps {
		o := opts()
		o.Workers = 8
		o.Checkpoint = &CheckpointOptions{Resume: snap}
		if resumed := runBytes(t, o); !bytes.Equal(ref, resumed) {
			t.Fatalf("burst snapshot %d diverged on resume", i)
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

// sealSnapshot encodes st with a valid checksum trailer, so that only the
// checks behind the checksum can refuse it.
func sealSnapshot(st *snapshotState) []byte {
	return wire.Seal(appendSnapshotState(nil, st))
}

// TestSnapshotRejectsCorrupt locks in the torn-checkpoint defense: a
// truncated file, a flipped byte, or a header that does not match the run
// must all be rejected with ErrBadSnapshot (so callers fall back to a
// restart from zero), never applied.
func TestSnapshotRejectsCorrupt(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	_, snaps := collectSnapshots(t, snapshotRun(t, h), 400)
	if len(snaps) == 0 {
		t.Fatal("no snapshots shipped")
	}
	snap := snaps[0]
	reseal := func(mutate func(*snapshotState)) func(*RunOptions, []byte) []byte {
		return func(_ *RunOptions, s []byte) []byte {
			st, err := decodeSnapshotState(s[:len(s)-sha256.Size])
			if err != nil {
				t.Fatal(err)
			}
			mutate(st)
			return sealSnapshot(st)
		}
	}
	cases := []struct {
		name   string
		mutate func(o *RunOptions, s []byte) []byte
	}{
		{"truncated", func(o *RunOptions, s []byte) []byte { return s[:len(s)/2] }},
		{"tiny", func(o *RunOptions, s []byte) []byte { return s[:7] }},
		{"bitflip", func(o *RunOptions, s []byte) []byte { s[len(s)/3] ^= 0x40; return s }},
		{"wrong spec hash", func(o *RunOptions, s []byte) []byte {
			o.Checkpoint.SpecHash = "deadbeef"
			return s
		}},
		{"wrong seed", func(o *RunOptions, s []byte) []byte { o.Seed++; return s }},
		// Snapshots of the retired per-cycle-generation engine, re-sealed so
		// only the header check can refuse them.
		{"engine hyperx-sim/3", reseal(func(st *snapshotState) { st.Engine = "hyperx-sim/3" })},
		{"legacy byte set", reseal(func(st *snapshotState) { st.Legacy = true })},
	}
	for _, tc := range cases {
		o := snapshotRun(t, h)
		o.Checkpoint = &CheckpointOptions{}
		o.Checkpoint.Resume = tc.mutate(&o, append([]byte(nil), snap...))
		if _, err := Run(o); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: resume returned %v, want ErrBadSnapshot", tc.name, err)
		}
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
// snapshotState — every field, including the nested packet, event, release
// and arrival structs, set to a distinct value — must round-trip
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
	st := &snapshotState{Magic: SnapshotVersion, GenRNG: []uint64{1, 2, 3, 4}}
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

// TestSnapshotRejectsInRelsMismatch: hyperx-ckpt/1 stores the pending
// input-port releases, which the engine now derives from the evCredit
// events on the wheel. A snapshot whose list disagrees with its own events
// — a wrong port, a wrong cycle, a dropped entry, two entries swapped, or
// an evCredit without its release — is internally inconsistent: it is
// refused with ErrBadSnapshot before anything is installed. The untouched
// snapshot passes the same check.
func TestSnapshotRejectsInRelsMismatch(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	_, snaps := collectSnapshots(t, snapshotRun(t, h), 400)
	if len(snaps) == 0 {
		t.Fatal("no snapshots shipped")
	}
	body := snaps[0][:len(snaps[0])-sha256.Size]
	decode := func() *snapshotState {
		st, err := decodeSnapshotState(body)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// The first switch holding two releases on different ports, for the swap.
	swapAt := -1
	for sw, at, st := 0, 0, decode(); sw < len(st.InRelLens); sw++ {
		if n := int(st.InRelLens[sw]); n >= 2 && swapAt < 0 && st.InRels[at] != st.InRels[at+1] {
			swapAt = at
		}
		at += int(st.InRelLens[sw])
	}
	if swapAt < 0 {
		t.Fatal("the snapshot holds no switch with two distinct pending releases: it no longer covers the order check")
	}
	cases := []struct {
		name   string
		mutate func(st *snapshotState)
	}{
		{"intact", func(st *snapshotState) {}},
		{"wrong port", func(st *snapshotState) { st.InRels[0].Port++ }},
		{"wrong cycle", func(st *snapshotState) { st.InRels[0].At++ }},
		{"swapped", func(st *snapshotState) {
			st.InRels[swapAt], st.InRels[swapAt+1] = st.InRels[swapAt+1], st.InRels[swapAt]
		}},
		{"dropped", func(st *snapshotState) {
			for sw := len(st.InRelLens) - 1; sw >= 0; sw-- {
				if st.InRelLens[sw] > 0 {
					st.InRelLens[sw]--
					break
				}
			}
			st.InRels = st.InRels[:len(st.InRels)-1]
		}},
		{"credit without release", func(st *snapshotState) {
			for i := range st.Events {
				if st.Events[i].Kind == evXferDone {
					st.Events[i].Kind = evCredit
					return
				}
			}
			t.Fatal("no evXferDone on the wheel")
		}},
		{"negative cycle", func(st *snapshotState) { st.Now = -1 }},
	}
	for _, tc := range cases {
		st := decode()
		tc.mutate(st)
		o := snapshotRun(t, h)
		o.Config = DefaultConfig()
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
		if in, out, inj := e.queuedPackets(0); e.now != 0 || len(e.pool) != 0 || in+out+inj != 0 {
			t.Errorf("%s: the refused snapshot was partly installed (now %d, pool %d)", tc.name, e.now, len(e.pool))
		}
		// The same bytes through the public path: re-sealed, so only the
		// consistency check can refuse them.
		o = snapshotRun(t, h)
		o.Checkpoint = &CheckpointOptions{Resume: sealSnapshot(st)}
		if _, err := Run(o); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: Run resumed it: %v", tc.name, err)
		}
	}
}
