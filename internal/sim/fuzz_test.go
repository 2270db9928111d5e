package sim

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/topo"
)

// The decoders read bytes from disk and from sockets, so their contract
// is the robustness one: any byte string yields an error or a value,
// never a panic or a runaway allocation; and a value that decoded
// re-encodes to bytes that decode to the same value. (The comparison falls
// back to the re-encoded bytes because a decoded NaN is not DeepEqual to
// itself.)

func FuzzDecodeResult(f *testing.F) {
	f.Add(sampleResult().AppendBinary(nil))
	f.Add((&Result{}).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		enc := r.AppendBinary(nil)
		again, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, r) && !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatalf("result changed across a re-encode:\n%+v\nvs\n%+v", r, again)
		}
	})
}

func FuzzDecodeSnapshotState(f *testing.F) {
	_, snaps := collectSnapshots(f, snapshotRun(f, topo.MustHyperX(4, 4)), 400)
	f.Add(snapshotBody(f, snaps[0]))
	for _, old := range oldSnapshots {
		snap, err := os.ReadFile(old.path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snapshotBody(f, snap)) // an older format: refused at the codec byte
	}
	f.Add(appendSnapshotState(nil, &snapshotState{Run: EngineVersion}))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSnapshotState(data)
		if err != nil {
			return
		}
		enc := appendSnapshotState(nil, st)
		again, err := decodeSnapshotState(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, st) && !bytes.Equal(appendSnapshotState(nil, again), enc) {
			t.Fatal("snapshot state changed across a re-encode")
		}
	})
}

// fuzzRestoreRun is the run FuzzRestoreSnapshot restores into: the 4x4 PolSP
// of the snapshot tests with one scheduled link failure, so a restore
// derives a fault cursor of 0 or 1 from the cycle it resumes at, and a
// throughput series, with the audits on.
func fuzzRestoreRun(t testing.TB) RunOptions {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, topo.NewFaultSet())
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	return RunOptions{
		Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, "PolSP", nw),
		Pattern: uniformOn(t, h, 4),
		Load:    0.7, WarmupCycles: 300, MeasureCycles: 1200, Seed: 77, Config: cfg,
		SeriesBucket:  fuzzSeriesBucket,
		FaultSchedule: []FaultEvent{{Cycle: fuzzFaultCycle, Edge: topo.RandomFaultSequence(h, 7)[0]}},
	}
}

// fuzzFaultCycle is when fuzzRestoreRun's link fails.
const fuzzFaultCycle = 500

// fuzzSeriesBucket is fuzzRestoreRun's series bucket. It does not divide
// the 400-cycle snapshot interval, so each snapshot's last bucket is open.
const fuzzSeriesBucket = 150

// fuzzRestoreSteps is how many cycles FuzzRestoreSnapshot runs an accepted
// restore for.
const fuzzRestoreSteps = 128

// mutatedBody decodes a shipped snapshot, changes one thing and re-encodes
// it: a seed one field away from a real state, behind no checksum.
func mutatedBody(t testing.TB, snap []byte, change func(st *snapshotState)) []byte {
	t.Helper()
	st, err := decodeSnapshotState(snapshotBody(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	change(st)
	return appendSnapshotState(nil, st)
}

// FuzzRestoreSnapshot is the restore-level target: any body through the
// decoder and applySnapshot on a fresh engine. The contract is an error
// wrapping ErrBadSnapshot, or an engine on which the port audit is clean,
// which captures back to the state it was given, and which then runs
// fuzzRestoreSteps cycles, audited after each, to the same state as a
// second fresh engine restored from the same bytes — never a panic. (The
// comparison is against the canonical re-encoding of the decoded state: a
// bool byte of 2 decodes as true and is written back as 1.) A run may end
// those cycles on the watchdog, since a state can say its last progress was
// long ago. Seeds: the snapshots of one run, taken before and after its
// scheduled fault, and states one field away from them — a credit, a ring
// length, an arrival cycle, a cycle across the fault's either way (so the
// derived fault cursor moves), and one fact of the series: a bucket past
// the restored cycle, a trailing empty bucket, a negative count, a count
// that is not a whole number of packets.
func FuzzRestoreSnapshot(f *testing.F) {
	_, snaps := collectSnapshots(f, fuzzRestoreRun(f), 400)
	if len(snaps) < 2 {
		f.Fatalf("%d seed snapshots, want one on each side of the fault at cycle 500", len(snaps))
	}
	for _, snap := range snaps {
		f.Add(snapshotBody(f, snap))
	}
	before, after := snaps[0], snaps[1]
	for _, change := range []func(st *snapshotState){
		func(st *snapshotState) { st.Credits[0]-- },
		func(st *snapshotState) {
			st.InQLens[slices.IndexFunc(st.InQLens, func(n int32) bool { return n > 0 })]--
		},
		func(st *snapshotState) { st.ArrQ[len(st.ArrQ)-1].at += 100 },
		func(st *snapshotState) { st.ArrQ[0].at = st.Now },
		func(st *snapshotState) { st.Now = fuzzFaultCycle + 1 },
		func(st *snapshotState) {
			st.Series = append(st.Series, make([]int64, st.Now/fuzzSeriesBucket)...)
			st.Series = append(st.Series, st.Series[0])
		},
		func(st *snapshotState) { st.Series = append(st.Series, 0) },
		func(st *snapshotState) { st.Series[0] = -st.Series[0] },
		func(st *snapshotState) { st.Series[len(st.Series)-1]-- },
	} {
		f.Add(mutatedBody(f, before, change))
	}
	f.Add(mutatedBody(f, after, func(st *snapshotState) {
		st.Now = fuzzFaultCycle
		st.Series = st.Series[:(st.Now-1)/fuzzSeriesBucket+1] // the buckets before the earlier cycle
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSnapshotState(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("decode error does not wrap ErrBadSnapshot: %v", err)
			}
			return
		}
		want := appendSnapshotState(nil, st)
		restore := func(st *snapshotState) (*engine, RunOptions, error) {
			o := fuzzRestoreRun(t)
			e, err := newEngine(o)
			if err != nil {
				t.Fatal(err)
			}
			e.warmStart, e.warmEnd = o.WarmupCycles, o.WarmupCycles+o.MeasureCycles
			return e, o, e.applySnapshot(st, o)
		}
		e, o, err := restore(st)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("restore error does not wrap ErrBadSnapshot: %v", err)
			}
			return
		}
		if err := e.auditPorts(); err != nil {
			t.Fatalf("restore accepted a state that fails the port audit: %v", err)
		}
		if got := appendSnapshotState(nil, e.captureSnapshot(o)); !bytes.Equal(got, want) {
			t.Fatalf("restore then capture changed the snapshot (%d bytes in, %d out)", len(want), len(got))
		}
		// The cycle loop's steps, audited after every cycle instead of
		// every 64th; then the state they reach.
		step := func(e *engine, o RunOptions) []byte {
			for end := min(e.now+fuzzRestoreSteps, e.warmEnd); e.now < end; e.now++ {
				if err := e.applyDueFaults(); err != nil {
					t.Fatalf("a restored run failed at cycle %d: %v", e.now, err)
				}
				e.stepCycle(e.generateArrivals)
				e.verifyInvariants()
				if err := e.checkWatchdog(); err != nil {
					if !errors.Is(err, ErrDeadlock) {
						t.Fatal(err)
					}
					break
				}
				e.fastForward()
			}
			return appendSnapshotState(nil, e.captureSnapshot(o))
		}
		again, err := decodeSnapshotState(data)
		if err != nil {
			t.Fatal(err)
		}
		twin, twinOpts, err := restore(again)
		if err != nil {
			t.Fatalf("the same bytes restored once and were refused the second time: %v", err)
		}
		if got, want := step(e, o), step(twin, twinOpts); !bytes.Equal(got, want) {
			t.Fatalf("two engines restored from the same bytes stepped to different states (%d and %d bytes)", len(got), len(want))
		}
	})
}
