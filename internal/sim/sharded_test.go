package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// shardMech builds one of the mechanisms covered by the determinism
// regression, including the ladder baselines that are not part of the
// paper's Table 4 (DOR, DAL).
func shardMech(t *testing.T, name string, nw *topo.Network) routing.Mechanism {
	t.Helper()
	switch name {
	case "DOR":
		alg, err := routing.NewDOR(nw)
		if err != nil {
			t.Fatal(err)
		}
		mech, err := routing.NewLadder(alg, 4, 1, "DOR")
		if err != nil {
			t.Fatal(err)
		}
		return mech
	case "DAL":
		alg, err := routing.NewDAL(nw)
		if err != nil {
			t.Fatal(err)
		}
		mech, err := routing.NewLadder(alg, 6, 1, "DAL")
		if err != nil {
			t.Fatal(err)
		}
		return mech
	case "EscapeOnly":
		mech, err := core.NewEscapeOnly(nw, 0, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return mech
	default:
		return buildMech(t, name, nw)
	}
}

// allMechanisms names the nine mechanisms shardMech builds.
var allMechanisms = []string{"Minimal", "Valiant", "OmniWAR", "Polarized", "DOR", "DAL", "OmniSP", "PolSP", "EscapeOnly"}

// shardWorkerCounts are the worker counts every sharded regression runs at:
// the sequential reference, a mid division of the switch array and one
// worker per pair of switches on the 4x4 test network.
var shardWorkerCounts = []int{1, 4, 8}

// runAtWorkers executes the same options at every worker count — each with
// activity tracking on and off — and asserts the Results are bit-identical
// to the sequential full-walk run, including the optional throughput
// series. This is the engine's determinism contract: neither the worker
// count nor the dirty-switch tracking may change a single byte. A final
// leg checkpoints the sequential run mid-flight and resumes each snapshot
// under the largest worker count: preemption may not change a byte either.
func runAtWorkers(t *testing.T, name string, opts RunOptions) {
	t.Helper()
	var ref *Result
	for _, w := range shardWorkerCounts {
		for _, noAct := range []bool{false, true} {
			o := opts
			o.Workers = w
			o.fullWalk = noAct
			res, err := Run(o)
			if err != nil {
				t.Fatalf("%s workers=%d activity=%v: %v", name, w, !noAct, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(ref, res) {
				t.Errorf("%s workers=%d activity=%v diverged from sequential:\n  ref: %+v\n  got: %+v",
					name, w, !noAct, ref, res)
			}
		}
	}
	var snaps [][]byte
	o := opts
	o.Workers = 1
	o.Checkpoint = &CheckpointOptions{
		EveryCycles: 400,
		Sink: func(s []byte) error {
			snaps = append(snaps, s)
			return nil
		},
	}
	res, err := Run(o)
	if err != nil {
		t.Fatalf("%s checkpointing run: %v", name, err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Errorf("%s checkpointing run diverged from sequential", name)
	}
	for i, snap := range snaps {
		o := opts
		o.Workers = shardWorkerCounts[len(shardWorkerCounts)-1]
		o.Checkpoint = &CheckpointOptions{Resume: snap}
		res, err := Run(o)
		if err != nil {
			t.Fatalf("%s resume of snapshot %d: %v", name, i, err)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("%s snapshot %d resumed at workers=%d diverged from sequential",
				name, i, o.Workers)
		}
	}
}

// TestShardedBitIdenticalAllMechanisms is the core regression of the
// sharded engine: for every mechanism, any worker count produces exactly
// the sequential Result — latencies, throughput, hop counts, Jain index,
// escape fractions, everything. The full-walk oracle recomputes every
// head's candidates, so the same comparison holds the head cache to them,
// and a second leg does so across two mid-run table rebuilds, each of
// which empties the cache (a mechanism that cannot route around the
// faults must fail the same way on both walks).
func TestShardedBitIdenticalAllMechanisms(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	pat := uniformOn(t, h, 4)
	seq := topo.RandomFaultSequence(h, 7)
	for _, name := range allMechanisms {
		t.Run(name, func(t *testing.T) {
			runAtWorkers(t, name, RunOptions{
				Net: nw, ServersPerSwitch: 4, Mechanism: shardMech(t, name, nw),
				Pattern: pat, Load: 0.7, WarmupCycles: 500, MeasureCycles: 1500, Seed: 42,
			})
			cfg := DefaultConfig()
			cfg.CheckInvariants = true // auditHeads: no list survives a rebuild stale
			faulted := func(workers int, fullWalk bool) string {
				runNW := topo.NewNetwork(h, topo.NewFaultSet())
				res, err := Run(RunOptions{
					Net: runNW, ServersPerSwitch: 4, Mechanism: shardMech(t, name, runNW),
					Pattern: pat, Load: 0.9, MeasureCycles: 1500, Seed: 42, Config: cfg,
					Workers: workers, fullWalk: fullWalk,
					FaultSchedule: []FaultEvent{{Cycle: 400, Edge: seq[0]}, {Cycle: 900, Edge: seq[1]}},
				})
				if err != nil {
					return err.Error()
				}
				return string(res.AppendBinary(nil))
			}
			ref := faulted(1, true)
			for _, w := range []int{1, 4} {
				if got := faulted(w, false); got != ref {
					t.Errorf("%s with two mid-run faults, workers=%d: the cached engine diverged from the full walk", name, w)
				}
			}
		})
	}
}

// TestShardedBitIdenticalBurstSeries covers the burst/completion-time mode
// with a throughput series, whose bucketed accumulation crosses the merge
// step.
func TestShardedBitIdenticalBurstSeries(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	sv := traffic.Servers{H: h, Per: 4}
	pat, err := traffic.NewRandomServerPermutation(sv.Count(), 5)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := core.New(nw, core.PolarizedRoutes, 4)
	if err != nil {
		t.Fatal(err)
	}
	runAtWorkers(t, "PolSP-burst", RunOptions{
		Net: nw, ServersPerSwitch: 4, Mechanism: mech,
		Pattern: pat, BurstPackets: 12, SeriesBucket: 400, Seed: 17,
	})
}

// TestShardedBitIdenticalMidRunFaults covers the mid-run fault path: link
// drains, lost-packet accounting and BFS table rebuilds all interleave with
// the sharded phases.
func TestShardedBitIdenticalMidRunFaults(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	pat := uniformOn(t, h, 4)
	seq := topo.RandomFaultSequence(h, 7)
	var ref *Result
	for _, w := range shardWorkerCounts {
		// Each run mutates its network's fault set, so every worker count
		// gets a fresh network and mechanism.
		runNW := topo.NewNetwork(h, topo.NewFaultSet())
		mech, err := core.New(runNW, core.OmniRoutes, 4)
		if err != nil {
			t.Fatal(err)
		}
		o := RunOptions{
			Net: runNW, ServersPerSwitch: 4, Mechanism: mech, Pattern: pat,
			Load: 0.6, WarmupCycles: 0, MeasureCycles: 3000, Seed: 23, Workers: w,
			FaultSchedule: []FaultEvent{
				{Cycle: 500, Edge: seq[0]},
				{Cycle: 1200, Edge: seq[1]},
			},
		}
		res, err := Run(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d diverged under mid-run faults:\n  seq: %+v\n  par: %+v", w, ref, res)
		}
	}
	// Checkpoint between the two scheduled faults and resume under a
	// different worker count: the restored run must replay the first edge
	// into its fresh network and still apply the second on schedule.
	freshOpts := func() RunOptions {
		runNW := topo.NewNetwork(h, topo.NewFaultSet())
		mech, err := core.New(runNW, core.OmniRoutes, 4)
		if err != nil {
			t.Fatal(err)
		}
		return RunOptions{
			Net: runNW, ServersPerSwitch: 4, Mechanism: mech, Pattern: pat,
			Load: 0.6, WarmupCycles: 0, MeasureCycles: 3000, Seed: 23,
			FaultSchedule: []FaultEvent{
				{Cycle: 500, Edge: seq[0]},
				{Cycle: 1200, Edge: seq[1]},
			},
		}
	}
	var snaps [][]byte
	o := freshOpts()
	o.Checkpoint = &CheckpointOptions{
		EveryCycles: 800,
		Sink: func(s []byte) error {
			snaps = append(snaps, s)
			return nil
		},
	}
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	for i, snap := range snaps {
		o := freshOpts()
		o.Workers = 8
		o.Checkpoint = &CheckpointOptions{Resume: snap}
		res, err := Run(o)
		if err != nil {
			t.Fatalf("resume of fault-schedule snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("fault-schedule snapshot %d resumed at workers=8 diverged", i)
		}
	}
}

// TestShardedInvariantsHold runs the parallel path with the internal
// accounting audits enabled: credits, buffer occupancy and packet
// conservation must hold cycle by cycle under sharded execution too.
func TestShardedInvariantsHold(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	pat := uniformOn(t, h, 4)
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	mech := buildMech(t, "PolSP", nw)
	if _, err := Run(RunOptions{
		Net: nw, ServersPerSwitch: 4, Mechanism: mech, Pattern: pat,
		Load: 0.9, WarmupCycles: 500, MeasureCycles: 1500, Seed: 3,
		Workers: 4, Config: cfg,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeWorkersRejected locks in option validation.
func TestNegativeWorkersRejected(t *testing.T) {
	h := topo.MustHyperX(3, 3)
	nw := topo.NewNetwork(h, nil)
	pat := uniformOn(t, h, 3)
	_, err := Run(RunOptions{
		Net: nw, ServersPerSwitch: 3, Mechanism: buildMech(t, "Minimal", nw),
		Pattern: pat, Load: 0.5, WarmupCycles: 10, MeasureCycles: 10, Seed: 1,
		Workers: -1,
	})
	if err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestShardedBitIdenticalOversubscribed pushes the worker count well past
// GOMAXPROCS — the regime where the phase barrier runs with the minimal
// spin budget and workers park between phases — and asserts the Result is
// still bit-identical to the sequential run. Oversubscription may only
// cost wall-clock time, never a byte of output.
func TestShardedBitIdenticalOversubscribed(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	pat := uniformOn(t, h, 4)
	opts := RunOptions{
		Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, "PolSP", nw),
		Pattern: pat, Load: 0.7, WarmupCycles: 300, MeasureCycles: 1000, Seed: 9,
	}
	var ref *Result
	for _, w := range []int{1, 3*runtime.GOMAXPROCS(0) + 1} {
		o := opts
		o.Workers = w
		res, err := Run(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d (oversubscribed) diverged from sequential:\n  ref: %+v\n  got: %+v",
				w, ref, res)
		}
	}
}
