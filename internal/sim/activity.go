package sim

import (
	"fmt"
	"slices"
)

// This file implements the engine's activity tracking: the dirty-switch
// set that lets every per-cycle phase and merge walk only the switches
// that can possibly do something, the per-switch *next-work time* that
// lets the phases skip switches whose earliest possible action is
// provably in the future, and the event-calendar fast-forward that jumps
// the run straight between events — arrivals, credits, serialization
// completions, faults, warm/measure boundaries — even while packets are
// in flight.
//
// A switch is *quiescent* exactly when
//
//	evWork[sw] == 0   no events anywhere on its calendar wheel, and
//	swInPkts[sw] + swOutPkts[sw] + swInjPkts[sw] == 0
//	                  empty input VCs, output buffers and injection queues
//	                  (the engine's per-switch queue counters).
//
// A quiescent switch provably no-ops in every phase. The next-work time
// generalizes that argument to switches that DO hold work, all of it
// timed: nextWork[sw] is a lower bound on the earliest cycle at which the
// switch can mutate any state or draw from its tie-break RNG stream. It
// is the min of two components:
//
//	evNext  the earliest pending calendar-wheel event (exact; lowered
//	        by scheduleSw and the transmit merge, re-scanned from the
//	        wheel by the event phase after a drain)
//	retry   the earliest cycle a queued head can advance, built by the
//	        three queue phases in their fixed order on every switch of
//	        the walk. Inject assigns it — the earliest injBusy expiry
//	        over non-empty injection queues (a credit-starved injection
//	        head unblocks only via this switch's own evCredit/evArrive
//	        chain, which evNext already bounds). Allocate lowers it with
//	        its verdict on the queued input heads: now+1 ("hot") if any
//	        head was *eligible* this cycle and not granted — it drew
//	        tie-break randomness, so every subsequent cycle must run —
//	        else the earliest inBusyUntil of a non-empty input VC on an
//	        unsaturated port (a saturated port unblocks when an evCredit
//	        of its own returns a crossbar slot, which evNext already
//	        bounds). Transmit lowers it with the earliest outBusy expiry
//	        over ports with queued output packets.
//
// Why the hot/parked split keeps bit-identity: the only randomness a
// switch draws per cycle is one tie per candidate of each *eligible* head
// packet (bestRequest). A head blocked on a busy input VC, a saturated
// input port, a busy output serializer or a busy/credit-less injection
// link is never considered, so it draws nothing — skipping those cycles
// is invisible, and the unblock time is switch-local (a busy-until word
// or an event on the switch's own wheel). A head that IS eligible draws
// ties even when arbitration then drops it — e.g. blocked on a downstream
// credit that only a *remote* switch can return — so its switch reports
// nextWork = now+1 and is never skipped. That is
// the extended skip proof: blocked-on-busy heads are skippable because
// their wake-up is a switch-local timer; blocked-on-credit heads are not,
// because their wake-up is a remote write AND the full walk would have
// drawn randomness for them every cycle.
//
// Ownership of the bookkeeping mirrors the phase ownership argument in
// shard.go: during the parallel phases a switch only ever adjusts its own
// counters and next-work components (indexed by its own id), so no word
// is written by two goroutines in a phase — the same indexed-write rule
// hxlint's shardsafe analyzer enforces. The scheduling wheel is touched
// only by the sequential steps — the due build, traffic generation, the
// transmit merge and compaction — so the iteration order every phase and
// merge sees is the ascending switch order of the full walk (the due
// build sorts its pops). The folded nextWork word is written only by the
// sequential steps (compaction, generation wake-ups), never by the
// phases, which read it as this cycle's stable skip verdict.
//
// Every engine keeps this state, the tests' full-walk oracle included:
// the oracle walks every switch every cycle and never jumps, but it keeps
// the same words with the same code (its compaction simply refolds every
// switch it walked), so the two share one bookkeeping path and differ
// only where engine.fullWalk is tested.
type activityState struct {
	// evWork counts pending calendar events per switch (its queued packets
	// are the engine's swInPkts, swOutPkts and swInjPkts).
	evWork []int32
	// The two next-work components (see the file comment) and the folded
	// per-switch minimum. nwNever means "no locally provable work".
	evNext   []int64
	retry    []int64
	nextWork []int64
	// nextWorkMin is a monotone lower bound on the earliest booked visit:
	// lowered by every booking, refreshed from the wheel only when a jump
	// is plausible (see fastForwardTarget). Never above the true minimum,
	// so a fast-forward can never overshoot a booked visit.
	nextWorkMin int64
	// sched is the next-work timing wheel: sched[t % schedSpan] holds the
	// switches booked for a visit at cycle t. Every next-work component is
	// at most the event horizon away (busy-untils, serialization expiries
	// and wheel events are all bounded by one packet's worth of cycles),
	// so a span of horizon+2 slots loses nothing; bookings further out are
	// clamped early, which the pop-time recheck turns into a re-booking.
	// schedAt[sw] is the cycle sw is currently booked for (-1 when not
	// booked); a wheel entry is live iff its slot time equals schedAt, so
	// re-bookings simply strand the old entry to be dropped when its slot
	// next drains. Replaces the former sorted active list: the per-cycle
	// cost is O(due + bookings) instead of O(every parked switch).
	sched     [][]int32
	schedSpan int64
	schedAt   []int64
	// due is the sorted list of switches whose booked visit has arrived;
	// it is built once at the top of each cycle from the wheel slot and is
	// the only list the phases and staging merges walk. woken stages
	// mid-cycle wake-ups from traffic generation for folding into due
	// before the inject/allocate phase (and burst preloads staged before
	// the first cycle, which the due build folds in directly); dueSpare is
	// the fold's double buffer.
	due      []int32
	dueSpare []int32
	woken    []int32
}

// nwNever is the "no locally provable next work" sentinel of the
// next-work words: far beyond any run's cycle budget, small enough that
// min/bound arithmetic cannot overflow.
const nwNever = int64(1) << 62

func newActivityState(switches int, span int64) *activityState {
	a := &activityState{
		evWork:      make([]int32, switches),
		evNext:      make([]int64, switches),
		retry:       make([]int64, switches),
		nextWork:    make([]int64, switches),
		sched:       make([][]int32, span),
		schedSpan:   span,
		schedAt:     make([]int64, switches),
		nextWorkMin: nwNever,
	}
	for i := 0; i < switches; i++ {
		a.evNext[i] = nwNever
		a.retry[i] = nwNever
		a.nextWork[i] = nwNever
		a.schedAt[i] = -1
	}
	return a
}

// schedule books a visit for sw at cycle t. An existing booking at or
// before t stands (visits are lower bounds: visiting early is safe, the
// due build re-books a switch whose next-work time has not arrived); a
// later booking is replaced, stranding its wheel entry. Bookings beyond
// the wheel's span are clamped early for the same reason. Sequential
// steps only.
func (a *activityState) schedule(sw int32, t, now int64) {
	if t >= now+a.schedSpan {
		t = now + a.schedSpan - 1
	}
	if at := a.schedAt[sw]; at != -1 && at <= t {
		return
	}
	a.schedAt[sw] = t
	slot := t % a.schedSpan
	a.sched[slot] = append(a.sched[slot], sw)
	if t < a.nextWorkMin {
		a.nextWorkMin = t
	}
}

// actEvNext lowers switch sw's earliest-event cache to at. Callers are sw
// itself (scheduleSw inside a phase) or the sequential transmit merge.
func (e *engine) actEvNext(sw int32, at int64) {
	if a := e.act; at < a.evNext[sw] {
		a.evNext[sw] = at
	}
}

// actWake marks sw due this cycle. Sequential steps only (traffic
// generation): the switch must run the remaining phases of the current
// cycle exactly as the full walk would, so it is staged for the woken
// fold into the due list, and the end-of-cycle compaction then refolds
// its components into a fresh nextWork. The nextWork guard doubles as
// the duplicate guard: a switch already due (or already woken) sits at
// nextWork <= now and is not staged again.
func (e *engine) actWake(sw int32) {
	if a := e.act; a.nextWork[sw] > e.now {
		a.nextWork[sw] = e.now
		a.woken = append(a.woken, sw)
	}
}

// actActivate books a wheel visit for sw at its current next-work time.
// Sequential steps only: the transmit merge calls it after lowering a
// target's folded word for a cross-switch event delivery. A switch whose
// next-work time has already arrived needs no booking — it is in this
// cycle's due list (or woken staging) and compaction re-books it.
func (e *engine) actActivate(sw int32) {
	if a := e.act; a.nextWork[sw] > e.now {
		a.schedule(sw, a.nextWork[sw], e.now)
	}
}

// actRemoteEvent accounts an event the transmit merge just put on tgt's
// calendar for cycle at. It is the one cross-switch lowering: the target
// may be parked, and compaction no longer refolds parked switches, so the
// folded word must track the new earliest event here (sequential, so the
// write is safe; events land strictly in the future, so a parked target
// stays parked this cycle).
func (e *engine) actRemoteEvent(tgt int32, at int64) {
	a := e.act
	a.evWork[tgt]++
	e.actEvNext(tgt, at)
	if at < a.nextWork[tgt] {
		a.nextWork[tgt] = at
	}
	e.actActivate(tgt)
}

// actBuildDue opens a cycle: it drains the wheel slot of the current
// cycle into the due list. Only due switches run the phases and the
// staging merges this cycle; for everyone else the cycle is a proven
// no-op (the extended quiescence argument in the file comment). A popped
// entry is live only if its booking time still matches — re-bookings and
// consumed bookings strand entries, dropped here. A live entry whose
// next-work time is still in the future was a clamped early booking; it
// is re-booked at the real time. Wake-ups staged before this point —
// burst preloads generate into switches before the first cycle, when no
// bookings exist yet — are folded in from the woken staging, which is
// then reset to collect only the mid-cycle wake-ups of this cycle's
// traffic generation. The pop order is wheel insertion order, so the due
// list is sorted to restore the full walk's ascending switch order.
func (e *engine) actBuildDue() {
	a := e.act
	due := a.due[:0]
	slot := e.now % a.schedSpan
	list := a.sched[slot]
	a.sched[slot] = list[:0]
	for _, sw := range list {
		if a.schedAt[sw] != e.now {
			continue
		}
		a.schedAt[sw] = -1
		if nw := a.nextWork[sw]; nw > e.now {
			if nw < nwNever {
				a.schedule(sw, nw, e.now)
			}
			continue
		}
		due = append(due, sw)
	}
	for _, sw := range a.woken {
		due = append(due, sw)
	}
	a.woken = a.woken[:0]
	if len(due) > 1 {
		slices.Sort(due)
	}
	a.due = due
}

// actMergeWoken folds the switches traffic generation woke mid-cycle into
// the due list, preserving ascending switch order so the inject/allocate
// and commit/transmit phases iterate exactly as the full walk would. The
// two lists are disjoint: actWake only stages switches that were parked
// (nextWork > now), and due holds none of those.
func (e *engine) actMergeWoken() {
	a := e.act
	if len(a.woken) == 0 {
		return
	}
	if len(a.woken) > 1 {
		slices.Sort(a.woken)
	}
	out := a.dueSpare[:0]
	i, j := 0, 0
	for i < len(a.due) || j < len(a.woken) {
		if j >= len(a.woken) || (i < len(a.due) && a.due[i] < a.woken[j]) {
			out = append(out, a.due[i])
			i++
		} else {
			out = append(out, a.woken[j])
			j++
		}
	}
	a.dueSpare = a.due
	a.due = out
	a.woken = a.woken[:0]
}

// actCompact ends the cycle: for every switch that ran this cycle — the
// switches of walk(), which is the due list outside the full-walk oracle —
// it refolds the next-work word from its two components and books the
// matching wheel visit, or parks the switch for good when it went
// quiescent. Only due switches need the refold: a parked switch ran
// nothing, so its components are unchanged and its fold still equals
// their minimum — the one cross-switch lowering, a transmit-merge routing
// an event onto a parked calendar, writes the folded word directly and
// books the visit itself (actRemoteEvent). The booking is forced (schedAt
// cleared first) because a woken switch may still hold a stale future
// booking from before its wake-up.
func (e *engine) actCompact() {
	a := e.act
	for _, sw := range e.walk() {
		if a.evWork[sw]+e.swInPkts[sw]+e.swOutPkts[sw]+e.swInjPkts[sw] == 0 {
			a.nextWork[sw] = nwNever
			continue
		}
		nw := min(a.evNext[sw], a.retry[sw])
		a.nextWork[sw] = nw
		a.schedAt[sw] = -1
		a.schedule(sw, nw, e.now)
	}
}

// scanSchedMin recomputes the exact earliest booked visit by scanning the
// whole wheel. Stranded entries are harmless: each one's schedAt either
// is -1 (skipped) or points at its switch's live booking time, so the
// minimum over live schedAt values is exact. Called only when a jump is
// plausible — on ticking cycles the cached lower bound already pins the
// engine — so the O(span + entries) cost is paid at most once per
// potential jump, not per cycle.
func (e *engine) scanSchedMin() int64 {
	a := e.act
	m := nwNever
	for _, slot := range a.sched {
		for _, sw := range slot {
			if at := a.schedAt[sw]; at != -1 && at < m {
				m = at
			}
		}
	}
	return m
}

// fastForwardTarget reports the next cycle at which the engine can do any
// work: the earliest booked wheel visit, bounded by the next traffic
// arrival (nextGen: the open-loop arrival calendar's earliest entry, or
// -1 in burst mode where all traffic preloads), the next scheduled fault,
// and the caller's bound (the burst timeout's maxCycles+1, or the open
// loop's warmup/measurement boundary). It returns false when the next
// cycle must execute anyway (some switch, arrival or fault is due at
// now+1). The cached nextWorkMin is a stale-low bound (bookings lower it,
// re-bookings don't raise it), so when it alone blocks a jump after a
// cycle that ran nothing, the exact minimum is recomputed from the wheel.
//
// Unlike the pre-calendar engine this jumps even with packets in flight:
// a switch waiting out an output serialization, a busy input VC or a
// pending credit reports the exact expiry as its next-work time, and the
// skipped cycles are provably no-ops for it (nothing due, no eligible
// head, so no state change and no randomness). A switch whose head is
// eligible — including one that arbitration keeps dropping for lack of a
// downstream credit — reports now+1 and pins the engine to per-cycle
// ticking, because the full walk would draw tie-break randomness for it
// every cycle. Jump safety: the target never exceeds a live booking, and
// stranded entries in skipped slots are dead by definition, so draining
// resumes exactly at the first slot with live work. verifyActivity audits
// the bookings against the queue ground truth under
// Config.CheckInvariants. The full-walk oracle never jumps: it steps every
// cycle.
func (e *engine) fastForwardTarget(bound, nextGen int64) (int64, bool) {
	if e.fullWalk {
		return 0, false
	}
	a := e.act
	if a.nextWorkMin <= e.now+1 && len(a.due) == 0 {
		a.nextWorkMin = e.scanSchedMin()
	}
	best := a.nextWorkMin
	if nextGen >= 0 && nextGen < best {
		best = nextGen
	}
	if e.nextFault < len(e.faultSchedule) && e.faultSchedule[e.nextFault].Cycle < best {
		best = e.faultSchedule[e.nextFault].Cycle
	}
	if bound < best {
		best = bound
	}
	if best <= e.now+1 {
		return 0, false
	}
	return best, true
}

// nextWheelEvent scans switch sw's calendar wheel for its earliest
// pending event cycle, nwNever when the wheel is empty. Called by the
// event phase only when the drained slot was the cached earliest — so the
// scan cost amortizes to O(1) per event, and no per-cycle code walks the
// whole wheel anymore.
func (e *engine) nextWheelEvent(sw int32) int64 {
	if e.act.evWork[sw] == 0 {
		return nwNever
	}
	if c := e.wheelFirst(sw); c != nwNever {
		return c
	}
	panic(fmt.Sprintf("sim: switch %d has evWork %d but an empty wheel at cycle %d",
		sw, e.act.evWork[sw], e.now))
}

// wheelFirst scans switch sw's calendar wheel forward from the next cycle
// and returns the first cycle with a pending event, nwNever when every
// future slot is empty.
func (e *engine) wheelFirst(sw int32) int64 {
	base := int64(sw) * e.horizon
	for off := int64(1); off < e.horizon; off++ {
		c := e.now + off
		if len(e.events[base+c%e.horizon]) > 0 {
			return c
		}
	}
	return nwNever
}

// wheelEvents counts the events pending anywhere on switch sw's calendar
// wheel: the ground truth of evWork[sw].
func (e *engine) wheelEvents(sw int32) int32 {
	var n int32
	base := int64(sw) * e.horizon
	for _, slot := range e.events[base : base+e.horizon] {
		n += int32(len(slot))
	}
	return n
}

// verifyActivity audits the activity bookkeeping against the ground
// truth: recomputed event counts per switch (verifyInvariants audits the
// queue counters just before), set membership for
// every switch with work, the exact evNext (against a full wheel scan),
// the folded per-switch minimum and the cached active-set minimum, and —
// the safety direction of the skip proof — that no switch's next-work
// time sleeps past a provable local obligation: a queued output head's
// busy expiry, a queued input head's busy-until on an unsaturated port,
// or a blocked injection head's link release. Wrong words would silently skip a switch
// with real work and corrupt results, so this panics like the
// flow-control audits. Enabled by Config.CheckInvariants via
// verifyInvariants, which runs after a full cycle (post-compaction), when
// the folded words are in sync with their components.
func (e *engine) verifyActivity() {
	a := e.act
	for sw := 0; sw < e.S; sw++ {
		evn, evNext := e.wheelEvents(int32(sw)), e.wheelFirst(int32(sw))
		in, out, inj := e.queuedPackets(sw)
		qn := in + out + inj
		if a.evWork[sw] != evn {
			panic(fmt.Sprintf("sim: event counter of switch %d is %d, actual %d at cycle %d",
				sw, a.evWork[sw], evn, e.now))
		}
		if evn+qn > 0 && a.schedAt[sw] == -1 {
			panic(fmt.Sprintf("sim: switch %d has work (ev %d, qu %d) but no booked wheel visit at cycle %d",
				sw, evn, qn, e.now))
		}
		if a.evNext[sw] != evNext {
			panic(fmt.Sprintf("sim: switch %d caches evNext %d, wheel says %d at cycle %d",
				sw, a.evNext[sw], evNext, e.now))
		}
		if evn+qn == 0 {
			if a.nextWork[sw] != nwNever || a.retry[sw] != nwNever {
				panic(fmt.Sprintf("sim: quiescent switch %d holds next-work state (%d; retry %d) at cycle %d",
					sw, a.nextWork[sw], a.retry[sw], e.now))
			}
			continue
		}
		fold := min(evNext, a.retry[sw])
		if a.nextWork[sw] != fold {
			panic(fmt.Sprintf("sim: switch %d folded next-work %d, components say %d at cycle %d",
				sw, a.nextWork[sw], fold, e.now))
		}
		// Safety: nextWork must not exceed any provable local obligation.
		// (Being too LOW only costs a wasted wake-up; too high skips work.)
		e.auditNextWorkBounds(int32(sw), a.nextWork[sw])
	}
	// Booking integrity: every booking is in the future, visits its switch
	// no later than the folded next-work time, and has a live wheel entry
	// in its own slot (else the visit would silently never fire).
	for sw := 0; sw < e.S; sw++ {
		at := a.schedAt[sw]
		if at == -1 {
			continue
		}
		if at <= e.now {
			panic(fmt.Sprintf("sim: switch %d booked for past cycle %d at cycle %d", sw, at, e.now))
		}
		if at > a.nextWork[sw] {
			panic(fmt.Sprintf("sim: switch %d booked for %d, after its next-work time %d at cycle %d",
				sw, at, a.nextWork[sw], e.now))
		}
		found := false
		for _, x := range a.sched[at%a.schedSpan] {
			if int(x) == sw {
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("sim: switch %d booked for cycle %d but absent from that wheel slot at cycle %d",
				sw, at, e.now))
		}
	}
	// The cached minimum must never overshoot a live booking (a stale-LOW
	// bound only delays a jump; a high one would skip real work).
	if m := e.scanSchedMin(); a.nextWorkMin > m {
		panic(fmt.Sprintf("sim: cached next-work minimum %d above earliest booking %d at cycle %d",
			a.nextWorkMin, m, e.now))
	}
}

// auditNextWorkBounds checks the skip-safety direction for one switch:
// every queued head whose unblock time is provable from switch-local
// state bounds nextWork from above. Heads whose unblock is NOT locally
// provable are exempt because they cannot be parked: an eligible input
// head (even one starved of downstream credits) forces retry = now+1,
// and a credit-starved injection head waits on this switch's own
// evCredit/evArrive chain, which evNext bounds.
func (e *engine) auditNextWorkBounds(sw int32, nw int64) {
	for p := 0; p < e.P; p++ {
		gp := sw*int32(e.P) + int32(p)
		if e.outQ.len(gp) > 0 {
			lim := e.now + 1
			if e.outBusy[gp] > lim {
				lim = e.outBusy[gp]
			}
			if nw > lim {
				panic(fmt.Sprintf("sim: switch %d next-work %d sleeps past output %d's transmit at %d (cycle %d)",
					sw, nw, gp, lim, e.now))
			}
		}
		if int(e.inInflight[gp]) >= e.cfg.XbarSpeedup {
			continue // unblocks via a pending evCredit; evNext bounds it
		}
		for vc := 0; vc < e.V; vc++ {
			invc := gp*int32(e.V) + int32(vc)
			if e.inQ.len(invc) == 0 {
				continue
			}
			lim := e.now + 1
			if e.inBusyUntil[invc] > lim {
				lim = e.inBusyUntil[invc]
			}
			if nw > lim {
				panic(fmt.Sprintf("sim: switch %d next-work %d sleeps past input VC %d's retry at %d (cycle %d)",
					sw, nw, invc, lim, e.now))
			}
		}
	}
	for s := 0; s < e.K; s++ {
		g := sw*int32(e.K) + int32(s)
		if e.injQ.len(g) > 0 && e.injBusy[g] > e.now && nw > e.injBusy[g] {
			panic(fmt.Sprintf("sim: switch %d next-work %d sleeps past server %d's injection at %d (cycle %d)",
				sw, nw, g, e.injBusy[g], e.now))
		}
	}
}
