package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the sharded execution machinery of the cycle engine. A
// cycle runs as three switch-parallel phases separated by cheap sequential
// merge steps:
//
//	1. events    — drain each switch's calendar slot
//	   mergeRetire (sequential): fold retired packets, freed ids, series
//	2. generate  (sequential): Bernoulli/burst traffic from the single
//	   generation RNG stream, in server order
//	   inject + allocate — launch injection queues, gather requests and run
//	   the per-output bucketed arbitration (reads shared state, writes only
//	   switch-local staging)
//	3. commit + transmit — apply arbitration winners, serialize output
//	   heads onto links; cross-switch arrivals stage in per-switch outboxes
//	   mergeTransmit (sequential): route outboxes onto target calendars in
//	   switch order, fold progress flags
//
// The phases and merges iterate one list, walk(): in every run but the
// tests' full-walk oracle the due list of activity.go — the timing wheel's
// current slot, one bit per switch listed in word order — instead of the
// whole switch array, so a switch whose next-work time is still in the
// future is skipped (see stepCycle); the compaction at the end of the
// cycle parks the switches that went quiescent and books the rest at their
// refolded next-work times. The iteration order is the ascending switch
// order of the full walk either way.
//
// Ownership argument (why the phases are race-free):
//
//   - Input-side state (inQ, inBusyUntil, inInflight) is read and written
//     only by its own switch in every phase.
//   - Output-side state (outQ, outVCCount, outBusy) likewise.
//   - A credit ledger entry credits[gport*V+vc] lives in the index range
//     of the SENDER, the switch whose output (gport, vc) it meters, next to
//     that output's outVCCount. It is written by the receiver only in
//     phase 1 — the downstream switch returns the credit, through up[],
//     while draining the evCredit it scheduled for itself at commit time —
//     written by the sender only in phase 3 (commit spends it), and read
//     by the sender only in phase 2 (pricing and the arbitration check).
//     The per-port sum credSum[port] stays with the RECEIVER's port and
//     mirrors that: the receiver adds in phase 1 and reads in phase 2
//     (pricing its own outputs), the sender subtracts through up[] in
//     phase 3. No two switches touch the same entry or sum in the same
//     phase, and the barriers between phases order the rest.
//   - The packet pool only grows in the sequential generate step; a live
//     packet is referenced by exactly one switch at a time, and retired ids
//     return to the free list through per-switch freed staging merged
//     sequentially.
//   - Calendars are per-switch; the only cross-switch event (a link
//     arrival) travels through the source switch's outbox and is appended
//     by the sequential merge in switch order.
//   - The activity counters (activity.go) follow the same rule: a switch
//     adjusts only its own counters inside a phase, and the active set
//     itself changes only in the sequential steps.
//
// Because every per-switch computation depends only on switch-owned state
// and the merges walk switches in index order, the run is bit-identical for
// any worker count — TestEngineModesBitIdentical (modes_test.go) locks this
// in for every mechanism, against the full-walk oracle too.

// spinYieldEvery bounds busy-waiting: every this many spin iterations the
// waiter yields its P so GC assists and (on small machines) the other
// workers can run. Phases are microseconds apart, so waits are short.
const spinYieldEvery = 256

// spinParkAfter caps how long a spinPool waiter burns a core before
// parking on its wake channel. Back-to-back phases release well inside
// this budget; when the engine stops dispatching for a while — the dirty
// list dropped below the worker count and phases run inline, or the run
// is tearing down — the waiter parks in the scheduler, costing one
// channel send when pooled dispatch resumes instead of a core for the
// whole quiet stretch.
const spinParkAfter = 64 * spinYieldEvery

// spinPool is the phase barrier: a spinning cyclic barrier with a parking
// fallback. The extra workers busy-wait on a generation word instead of a
// channel, so releasing a phase is one atomic add and collecting it is
// one atomic counter — no scheduler round-trip on either edge. The engine
// dispatches three phases per simulated cycle; on small networks with
// many workers channel round-trips would dominate the phase cost, which
// is what the spin removes.
//
// The spin→park hybrid: a waiter (worker or collecting caller) that
// exhausts its spin budget raises its own parked flag, rechecks the
// condition it is waiting on, and only then blocks on its own one-slot
// wake channel; the releasing side updates the condition first and then
// sends, non-blocking, to every waiter whose flag is up. Go atomics are
// sequentially consistent, so flag→recheck on one side against
// release→read-flag on the other means a waiter that missed the release
// has its flag seen by the releaser, and since nobody else receives from
// its channel the token cannot go to another waiter: a lost wake-up is
// impossible by construction. A token the waiter turned out not to need
// stays in the slot (a full slot makes the next send a no-op) and costs
// one spurious wake-up, after which the waiter rechecks and parks again.
// Under oversubscription — an engine with more workers than GOMAXPROCS —
// startPool shrinks the spin budget to a single yield round, so the
// surplus workers park almost immediately and the barrier degrades toward
// a channel pool instead of spinning against goroutines that have no P to
// run on.
//
// Correctness of the handoff: run publishes fn with a plain store before
// the gen.Add release, and workers read it after observing the new
// generation, so fn is visible; arrived is reset before the release while
// no worker is between generations. The hot words sit on separate cache
// lines: gen is written once per release but spun on by every worker, and
// arrived is hammered by arriving workers while the caller spins on it —
// sharing a line would bounce it between every core at each phase edge.
type spinPool struct {
	extra      int32 // workers beyond the caller
	spinBudget int32 // spins before a waiter parks
	fn         func(w int)

	_       [64]byte // pad the release word away from the header above
	gen     atomic.Uint32
	_       [64]byte // ... and from the collect word below
	arrived atomic.Int32
	_       [64]byte

	parked       []atomic.Bool   // per worker: blocked (or about to block) on its wake channel
	wake         []chan struct{} // per worker: one-slot wake token
	callerParked atomic.Bool     // collecting caller blocked on doneWake
	stop         atomic.Bool
	doneWake     chan struct{} // caller wake token, cap 1
	wg           sync.WaitGroup
}

func newSpinPool(extra int, spinBudget int32) *spinPool {
	p := &spinPool{
		extra:      int32(extra),
		spinBudget: spinBudget,
		parked:     make([]atomic.Bool, extra),
		wake:       make([]chan struct{}, extra),
		doneWake:   make(chan struct{}, 1),
	}
	p.wg.Add(extra)
	for i := 0; i < extra; i++ {
		w := i + 1
		parked, wake := &p.parked[i], make(chan struct{}, 1)
		p.wake[i] = wake
		go func() {
			defer p.wg.Done()
			last := uint32(0)
			for {
				for spins := int32(1); p.gen.Load() == last; spins++ {
					if spins%spinYieldEvery != 0 {
						continue
					}
					if spins < p.spinBudget {
						runtime.Gosched()
						continue
					}
					// Flag, recheck, then block: a release before the
					// recheck is caught by the recheck, one after it
					// reads the flag and fills this worker's slot.
					parked.Store(true)
					if p.gen.Load() == last {
						<-wake
					}
					parked.Store(false)
					spins = 0
				}
				last++
				if p.stop.Load() {
					return
				}
				p.fn(w)
				if p.arrived.Add(1) == p.extra && p.callerParked.Load() {
					select {
					case p.doneWake <- struct{}{}:
					default: // a banked token is already waiting
					}
				}
			}
		}()
	}
	return p
}

func (p *spinPool) run(fn func(w int)) {
	p.fn = fn
	p.arrived.Store(0)
	p.gen.Add(1)
	p.wakeParked()
	fn(0)
	for spins := int32(1); p.arrived.Load() != p.extra; spins++ {
		if spins%spinYieldEvery != 0 {
			continue
		}
		if spins < p.spinBudget {
			runtime.Gosched()
			continue
		}
		// Same flag→recheck→block shape as the workers; the last
		// arriver sends the token. A banked token from an earlier phase
		// wakes the caller spuriously, which rechecks and re-parks.
		p.callerParked.Store(true)
		if p.arrived.Load() != p.extra {
			<-p.doneWake
		}
		p.callerParked.Store(false)
		spins = 0
	}
}

// wakeParked fills the slot of every worker whose parked flag is up; the
// caller has already advanced gen.
func (p *spinPool) wakeParked() {
	for i := range p.wake {
		if p.parked[i].Load() {
			select {
			case p.wake[i] <- struct{}{}:
			default: // the slot already holds a token
			}
		}
	}
}

func (p *spinPool) close() {
	p.stop.Store(true)
	p.gen.Add(1)
	// Each woken worker rechecks gen, sees the bumped generation and
	// exits through the stop check.
	p.wakeParked()
	p.wg.Wait()
}

// startPool brings up the phase pool when the run asked for intra-run
// parallelism; the returned stop function tears it down. Every pool is
// the same spin→park barrier; an engine with more workers than GOMAXPROCS
// only shrinks the spin budget, so the choice degrades gracefully instead
// of flipping between pool implementations. The budget is the engine's
// own: engines running side by side (a grid pool) fit the CPUs only if
// whoever sizes their worker counts makes them fit, as the experiments
// Runner's adaptive policy does.
func (e *engine) startPool() func() {
	if e.workers <= 1 {
		return func() {}
	}
	budget := int32(spinParkAfter)
	if e.workers > runtime.GOMAXPROCS(0) {
		budget = spinYieldEvery
	}
	e.disp = newSpinPool(e.workers-1, budget)
	return func() {
		e.disp.close()
		e.disp = nil
	}
}

// walk is the switch list of this cycle's phases, merges and compaction:
// the due list (the timing wheel's current slot, listed by actBuildDue at
// the top of the cycle and again by actMergeWoken when traffic generation
// booked a switch into it mid-cycle), or every
// switch in the tests' full-walk oracle, which builds the same due list
// and ignores it. Either way it is in ascending switch order, and the
// switch-cycles a run executes are len(walk()) per stepped cycle, against
// S possible.
func (e *engine) walk() []int32 {
	if e.fullWalk {
		return e.all
	}
	return e.act.due
}

// forEachDue applies fn to every switch of walk(), in ascending switch
// order per worker chunk. Skipped switches provably neither mutate state
// nor draw randomness this cycle (activity.go), so the walk is observably
// the full walk. Short lists skip the pool dispatch entirely; the choice
// depends only on the (deterministic) list size, and chunk boundaries
// never affect results because scratch state is per-switch.
func (e *engine) forEachDue(fn func(sw int32, ws *workerScratch)) {
	list := e.walk()
	if e.disp == nil || len(list) < e.workers {
		ws := &e.ws[0]
		for _, sw := range list {
			fn(sw, ws)
		}
		return
	}
	e.disp.run(func(w int) {
		lo := len(list) * w / e.workers
		hi := len(list) * (w + 1) / e.workers
		ws := &e.ws[w]
		for _, sw := range list[lo:hi] {
			fn(sw, ws)
		}
	})
}

// mergeRetire folds the per-switch retirement staging of this cycle into
// the run totals: the lost count, the packet free list (and so the
// in-flight count, on which a burst ends), the optional throughput series
// (PacketPhits per delivered packet, in the bucket of this cycle) and the
// progress stamp. Walking switches in index
// order keeps the free list (and so packet-id reuse) independent of
// scheduling; only switches that ran the event phase can hold staging, so
// walk() covers everything.
func (e *engine) mergeRetire() {
	for _, sw := range e.walk() {
		if d, l := e.swDelivered[sw], e.swLost[sw]; d+l != 0 {
			e.lostPkts += l
			if d > 0 && e.seriesBucket > 0 {
				b := int(e.now / e.seriesBucket)
				if b >= len(e.series) {
					e.series = append(e.series, make([]int64, b+1-len(e.series))...)
				}
				e.series[b] += d * int64(e.cfg.PacketPhits)
			}
			e.swDelivered[sw], e.swLost[sw] = 0, 0
		}
		if freed := e.freed[sw]; len(freed) > 0 {
			e.free = append(e.free, freed...)
			e.freed[sw] = freed[:0]
		}
		if e.swProgressed[sw] {
			e.lastProgress = e.now
			e.swProgressed[sw] = false
		}
	}
}

// mergeTransmit routes every switch's outbox onto the target calendars, in
// switch order, and folds the progress stamps of the inject/allocate/
// commit/transmit phases. Targets that were quiescent are (re)activated
// here — the only place one switch creates work for another. Only the
// switches of walk() ran the phases, so only they can hold staging.
//
// Booking the target is the one cross-switch lowering: it may be parked,
// and compaction only refolds the switches it walked, so its visit moves
// to the new event here (sequential, so the write is safe; events land
// strictly in the future, so a parked target stays parked this cycle, and
// a due one keeps its current visit until compaction refolds it).
func (e *engine) mergeTransmit() {
	PV := int32(e.P * e.V)
	for _, sw := range e.walk() {
		outbox := e.outbox[sw]
		for _, te := range outbox {
			tgt := te.ev.a / PV
			e.scheduleSw(tgt, te.at-e.now, te.ev)
			e.act.book(tgt, te.at)
		}
		e.outbox[sw] = outbox[:0]
		if e.swProgressed[sw] {
			e.lastProgress = e.now
			e.swProgressed[sw] = false
		}
	}
}

// stepCycle advances the engine by one cycle. generate runs between the
// event drain and the switch phases: the run loop passes the arrival
// calendar's generation, a no-op on burst's empty calendar (all burst
// traffic preloads). The phases walk only the due list actBuildDue lists
// from the current wheel slot — switches whose booked next-work time has
// arrived, plus switches traffic generation wakes mid-cycle (booked into
// the same slot and listed again before inject/allocate); actCompact then
// re-books every due switch at its refolded next-work time, or parks it
// for good when quiescent. For everyone else the cycle is provably a
// no-op — no event due, no eligible head, so no state change and no
// randomness drawn (the extended quiescence proof in activity.go). The
// booking is stable across the cycle's phases — written only by the
// sequential steps (compaction, generation wake-ups, the transmit merge),
// never by the phases — so the due list that selected a switch for
// allocate also selects it for commit, and a stale granted list can never
// replay.
func (e *engine) stepCycle(generate func()) {
	e.actBuildDue()
	//hx:parallel-phase
	e.forEachDue(func(sw int32, _ *workerScratch) {
		e.processEventsSwitch(sw)
	})
	e.mergeRetire()
	if generate != nil {
		generate()
		e.actMergeWoken()
	}
	//hx:parallel-phase
	e.forEachDue(func(sw int32, ws *workerScratch) {
		e.injectSwitch(sw, ws)
		e.allocateSwitch(sw, ws)
	})
	//hx:parallel-phase
	e.forEachDue(func(sw int32, _ *workerScratch) {
		e.commitSwitch(sw)
		e.transmitSwitch(sw)
	})
	e.mergeTransmit()
	e.actCompact()
}

// foldWindow sums the per-switch measurement records; result() calls it
// once per run. The sum is a value, not engine state: the per-switch
// records are what a snapshot carries, so a resumed run folds the same sums.
func (e *engine) foldWindow() (sum window) {
	for _, w := range e.win {
		sum.deliveredPkts += w.deliveredPkts
		sum.latencySum += w.latencySum
		sum.hopSum += w.hopSum
		sum.escapedPkts += w.escapedPkts
		sum.linkBusy += w.linkBusy
		sum.lastDelivery = max(sum.lastDelivery, w.lastDelivery)
	}
	return sum
}
