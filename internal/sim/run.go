package sim

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// RunOptions configures one simulation run.
type RunOptions struct {
	// Net is the simulated topology with its fault set. The routing
	// mechanism must have been built (or Rebuilt) on this same network.
	Net *topo.Network
	// ServersPerSwitch is the number of servers attached to every switch
	// (the paper uses the side k).
	ServersPerSwitch int
	// Mechanism routes the packets.
	Mechanism routing.Mechanism
	// Pattern generates destinations.
	Pattern traffic.Pattern
	// Load is the offered load in phits per server per cycle, in (0, 1].
	// Ignored in burst mode.
	Load float64
	// WarmupCycles runs before measurement starts.
	WarmupCycles int64
	// MeasureCycles is the measurement window length.
	MeasureCycles int64
	// BurstPackets, when positive, switches to completion-time mode
	// (Figure 10): every server starts with this many queued packets, no
	// further traffic is generated, and the run ends when all packets are
	// delivered (or MaxCycles elapses).
	BurstPackets int
	// MaxCycles bounds burst-mode runs; 0 means 100x the warmup+measure
	// budget or 10M cycles, whichever is larger.
	MaxCycles int64
	// SeriesBucket, when positive, records a throughput time series with
	// this bucket width in cycles.
	SeriesBucket int64
	// FaultSchedule injects link failures mid-run: each event takes a link
	// down at the start of its cycle, drops the packets committed to it,
	// and rebuilds the mechanism's tables by BFS. Net.Faults is mutated as
	// events fire.
	FaultSchedule []FaultEvent
	// Seed drives all randomness of the run.
	Seed uint64
	// Workers sets the intra-run parallelism: the switch array is domain-
	// decomposed and each cycle's phases run switch-parallel on this many
	// workers (capped at the switch count). 0 or 1 runs the phases in
	// place on the calling goroutine. Results are bit-identical for every
	// value — all randomness is bound to switches and servers, never to
	// workers — so this is purely a wall-clock knob; it pays off on large
	// single runs (paper-scale 8x8x8) and costs a little synchronization
	// overhead on tiny networks.
	Workers int
	// fullWalk makes the engine walk every switch through every phase of
	// every cycle, with no fast-forward and no skipped port scans, while
	// keeping its activity bookkeeping. Skipping is bit-identical to the
	// full walk — a skipped switch-cycle cannot mutate state or draw
	// randomness (see activity.go) — so the walk survives only as the
	// reference the tests of this package compare the engine against.
	fullWalk bool
	// Config carries the Table 2 microarchitecture; zero means
	// DefaultConfig.
	Config Config
	// Checkpoint, when non-nil, enables mid-run snapshots and/or resuming
	// from one (snapshot.go). Snapshots are taken only at the sequential
	// inter-cycle point and capturing one never mutates engine state, so —
	// like Workers — this never affects results: a resumed run is
	// bit-identical to an uninterrupted one.
	Checkpoint *CheckpointOptions
}

// Result reports the outcome of a run using the paper's three metrics plus
// diagnostics.
type Result struct {
	// OfferedLoad echoes the configured load (phits/server/cycle).
	OfferedLoad float64
	// AcceptedLoad is delivered phits per server per cycle over the
	// measurement window.
	AcceptedLoad float64
	// AvgLatency is the mean message latency in cycles over packets
	// delivered in the window.
	AvgLatency float64
	// AvgHops is the mean switch-to-switch hop count of delivered packets.
	AvgHops float64
	// JainIndex is the fairness of per-server generated load in the window.
	JainIndex float64
	// EscapeFraction is the fraction of delivered packets that used the
	// escape subnetwork (always 0 for non-SurePath mechanisms).
	EscapeFraction float64
	// LinkUtilization is the mean busy fraction of live switch-to-switch
	// links over the measurement window.
	LinkUtilization float64
	// DeliveredPackets and GeneratedPackets count the measurement window.
	DeliveredPackets int64
	GeneratedPackets int64
	// StalledGenerations counts packets whose generation stalled on a full
	// injection queue (across the whole run).
	StalledGenerations int64
	// LostPackets counts packets dropped by mid-run link failures.
	LostPackets int64
	// FaultsApplied counts the FaultSchedule events that fired during the
	// run (all of them, unless the run ended early).
	FaultsApplied int64
	// Cycles is the total simulated time.
	Cycles int64
	// CompletionTime is the cycle of the last delivery (burst mode).
	CompletionTime int64
	// Series is the bucketed throughput time series, if requested.
	Series []metrics.SeriesPoint
}

// constructible applies the Config default and checks what newEngine needs
// of the options; the run-shape fields are Run's to check.
func (o *RunOptions) constructible() error {
	if o.Config == (Config{}) {
		o.Config = DefaultConfig()
	}
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.Net == nil || o.Mechanism == nil || o.Pattern == nil {
		return fmt.Errorf("sim: Net, Mechanism and Pattern are required")
	}
	if o.ServersPerSwitch < 1 {
		return fmt.Errorf("sim: ServersPerSwitch must be >= 1, got %d", o.ServersPerSwitch)
	}
	return nil
}

// Run simulates one configuration and returns its metrics. It returns
// ErrDeadlock (wrapped) if the watchdog fires.
func Run(o RunOptions) (*Result, error) {
	if err := o.constructible(); err != nil {
		return nil, err
	}
	burst := o.BurstPackets > 0
	if !burst && (o.Load <= 0 || o.Load > 1) {
		return nil, fmt.Errorf("sim: Load must be in (0,1], got %v", o.Load)
	}
	if !burst && o.MeasureCycles < 1 {
		return nil, fmt.Errorf("sim: MeasureCycles must be >= 1, got %d", o.MeasureCycles)
	}
	if o.WarmupCycles < 0 {
		return nil, fmt.Errorf("sim: WarmupCycles must be >= 0, got %d", o.WarmupCycles)
	}
	if o.Workers < 0 {
		return nil, fmt.Errorf("sim: Workers must be >= 0, got %d", o.Workers)
	}

	e, err := newEngine(o)
	if err != nil {
		return nil, err
	}
	e.warmStart, e.warmEnd = measureWindow(o)
	if o.Checkpoint != nil && len(o.Checkpoint.Resume) > 0 {
		// Restore replaces the whole mutable state — including e.now, the
		// series and the fault cursor — so the loops below continue mid-run
		// instead of starting at cycle zero.
		if err := e.restoreSnapshot(o.Checkpoint.Resume, o); err != nil {
			return nil, err
		}
	}

	if burst {
		return e.runBurst(o)
	}
	return e.runOpenLoop(o)
}

// burstMaxCycles is the burst-mode cycle budget of a run (the RunOptions
// default rule), shared by runBurst's overrun check and measureWindow.
func burstMaxCycles(o RunOptions) int64 {
	maxCycles := o.MaxCycles
	if maxCycles == 0 {
		maxCycles = 100 * (o.WarmupCycles + o.MeasureCycles)
		if maxCycles < 10_000_000 {
			maxCycles = 10_000_000
		}
	}
	return maxCycles
}

// measureWindow is the measurement window [start, end) of a run: after the
// warmup for the open loop, and every cycle up to the budget for a burst.
func measureWindow(o RunOptions) (start, end int64) {
	if o.BurstPackets > 0 {
		return 0, burstMaxCycles(o) + 1
	}
	return o.WarmupCycles, o.WarmupCycles + o.MeasureCycles
}

// runOpenLoop is the standard warmup+measurement experiment with Bernoulli
// generation at the offered load. The Bernoulli draws are aggregated into
// the per-server geometric arrival calendar (arrivals.go), which lets the
// run fast-forward between events even mid-flight. It ends at the
// measurement end.
func (e *engine) runOpenLoop(o RunOptions) (*Result, error) {
	if e.arrQ == nil {
		// Tests may pre-seed a handcrafted calendar; a real Run never does.
		e.initArrivals(o.Load)
	}
	done := func() bool { return e.now >= e.warmEnd }
	if err := e.loop(o, done, func() error { return nil }); err != nil {
		return nil, err
	}
	res, _ := e.result(o)
	return res, nil
}

// loop is the cycle loop of both run modes and the only place a run steps
// the engine. Each iteration runs, in this order: the caller's end check,
// the checkpoint (so the cycle a run ends at never ships a snapshot), the
// caller's overrun check, the due faults, the cycle itself, the audits,
// the watchdog and the fast-forward. Burst runs the same arrival
// generation as the open loop, on an empty calendar: it draws nothing and
// wakes nothing.
//
// A checkpoint only captures on the loop; its encoding and Sink call run
// on a goroutine of their own (ship). Every exit waits for that goroutine,
// so no Sink call is running or still to come once loop returns, and a
// Sink error the loop has not seen yet fails a run that otherwise ended
// well (an error of the loop's own takes precedence).
func (e *engine) loop(o RunOptions, done func() bool, overrun func() error) (err error) {
	defer e.startPool()()
	// A fresh engine starts at e.now = 0; a restored one continues at its
	// checkpoint cycle, so the loop deliberately has no init clause.
	ckpt := newCkptClock(e.now)
	defer func() {
		if sinkErr := ckpt.wait(); err == nil {
			err = sinkErr
		}
	}()
	for ; !done(); e.now++ {
		if err := e.maybeCheckpoint(&ckpt, o); err != nil {
			return err
		}
		if err := overrun(); err != nil {
			return err
		}
		if err := e.applyDueFaults(); err != nil {
			return err
		}
		e.stepCycle(e.generateArrivals)
		if e.cfg.CheckInvariants && e.now%64 == 0 {
			e.verifyInvariants()
		}
		if err := e.checkWatchdog(); err != nil {
			return err
		}
		e.fastForward()
	}
	return nil
}

// fastForward is the loop's event-calendar jump: a cycle before every
// switch's next-work time with no due arrival mutates nothing and draws
// no randomness — even with packets in flight, waiting out busy links and
// buffers — so jumping over the stretch is invisible, and e.now passes
// through exactly the observable sequence of per-cycle ticking (see
// fastForwardTarget in activity.go). The jump stops at the window edges:
// warmStart only out of caution (nothing triggers there), warmEnd because
// the open loop ends there and a burst, measured over [0, maxCycles+1),
// times out there at the same cycle per-cycle ticking would. A network
// with nothing in flight and no arrival ahead — a drained burst — does
// not jump: nothing is due anywhere, and an unguarded jump would ride to
// warmEnd before the end check runs. Skipped cycles stamp no progress
// with packets in flight, exactly like the full walk (a skipped cycle is
// a no-op for every switch), so the watchdog sees the same stall lengths
// either way.
func (e *engine) fastForward() {
	arrival := e.nextArrivalCycle()
	if e.inFlight() == 0 && arrival < 0 {
		return
	}
	bound := e.warmEnd
	if e.now < e.warmStart && e.warmStart < bound {
		bound = e.warmStart
	}
	if next, ok := e.fastForwardTarget(bound, arrival); ok {
		e.now = next - 1 // the loop increment lands on the target
		if e.inFlight() == 0 {
			// Per-cycle ticking would have stamped progress on every
			// skipped (empty-network) cycle; replicate the last stamp so
			// the watchdog never sees the jump as a stall.
			e.lastProgress = e.now
		}
	}
}

// runBurst preloads every injection queue and runs to completion.
func (e *engine) runBurst(o RunOptions) (*Result, error) {
	maxCycles := burstMaxCycles(o)
	nServers := int32(e.S * e.K)
	if o.Checkpoint == nil || len(o.Checkpoint.Resume) == 0 {
		// The preload is part of the serialized state: a restored run's
		// injection queues already hold whatever remains of the burst.
		for g := int32(0); g < nServers; g++ {
			for i := 0; i < o.BurstPackets; i++ {
				if !e.generate(g) {
					return nil, fmt.Errorf("sim: burst of %d packets exceeds injection queue", o.BurstPackets)
				}
			}
		}
	}
	// The free list is the record of live packets: the burst is done when
	// none is left, every packet delivered or lost.
	done := func() bool { return e.inFlight() == 0 }
	overrun := func() error {
		if e.now > maxCycles {
			total := int64(o.BurstPackets) * int64(nServers)
			return fmt.Errorf("sim: burst did not complete within %d cycles (%d/%d delivered)",
				maxCycles, total-e.lostPkts-e.inFlight(), total)
		}
		return nil
	}
	if err := e.loop(o, done, overrun); err != nil {
		return nil, err
	}
	res, w := e.result(o)
	res.CompletionTime = w.lastDelivery
	// Normalize window metrics over the actual duration.
	res.AcceptedLoad = float64(w.deliveredPkts*int64(e.cfg.PacketPhits)) / float64(e.S*e.K) / float64(w.lastDelivery)
	if w.lastDelivery > 0 {
		res.LinkUtilization = e.linkUtilization(w.linkBusy, w.lastDelivery)
	}
	return res, nil
}

// checkWatchdog aborts when nothing moved for too long while packets exist.
func (e *engine) checkWatchdog() error {
	if e.cfg.WatchdogCycles == 0 || e.inFlight() == 0 {
		e.lastProgress = e.now
		return nil
	}
	if e.now-e.lastProgress > e.cfg.WatchdogCycles {
		return fmt.Errorf("%w: %d packets stuck for %d cycles at cycle %d",
			ErrDeadlock, e.inFlight(), e.now-e.lastProgress, e.now)
	}
	return nil
}

// linkUtilization is the busy share of the live switch-to-switch link ports
// over cycles, each link counted at both ends. Which links are up is the
// network's fault set, the one record markLinkDead writes.
func (e *engine) linkUtilization(busy, cycles int64) float64 {
	live := 0
	for sw := range int32(e.S) {
		live += e.nw.AliveDegree(sw)
	}
	if live == 0 {
		return 0
	}
	return float64(busy) / float64(live) / float64(cycles)
}

// result assembles the metrics from the engine's counters and the fold of
// the per-switch window records, which it also returns: burst mode
// renormalizes over the completion time.
func (e *engine) result(o RunOptions) (*Result, window) {
	w := e.foldWindow()
	res := &Result{
		OfferedLoad:        o.Load,
		StalledGenerations: e.stalledGenPkts,
		LostPackets:        e.lostPkts,
		FaultsApplied:      int64(e.nextFault),
		DeliveredPackets:   w.deliveredPkts,
		Cycles:             e.now,
		JainIndex:          metrics.JainInt(e.genPhits),
	}
	var gen int64
	for _, g := range e.genPhits {
		gen += g
	}
	res.GeneratedPackets = gen / int64(e.cfg.PacketPhits)
	if o.MeasureCycles > 0 {
		res.AcceptedLoad = float64(w.deliveredPkts*int64(e.cfg.PacketPhits)) / float64(e.S*e.K) / float64(o.MeasureCycles)
		res.LinkUtilization = e.linkUtilization(w.linkBusy, o.MeasureCycles)
	}
	if w.deliveredPkts > 0 {
		res.AvgLatency = float64(w.latencySum) / float64(w.deliveredPkts)
		res.AvgHops = float64(w.hopSum) / float64(w.deliveredPkts)
		res.EscapeFraction = float64(w.escapedPkts) / float64(w.deliveredPkts)
	}
	if len(e.series) > 0 {
		res.Series = make([]metrics.SeriesPoint, len(e.series))
		for i, phits := range e.series {
			res.Series[i] = metrics.SeriesPoint{
				Cycle:    int64(i+1) * e.seriesBucket,
				Accepted: float64(phits) / float64(e.seriesBucket*int64(e.S*e.K)),
			}
		}
	}
	return res, w
}
