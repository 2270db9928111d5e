package sim

import (
	"fmt"
	"math/bits"
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
//	evMask[sw] == 0   no event in any slot of its calendar, and
//	!holdsPackets(sw) empty input VCs, output buffers and injection queues
//	                  (no bit of the switch's inMask, outMask and injMask).
//
// A quiescent switch provably no-ops in every phase. The next-work time
// generalizes that argument to switches that DO hold work, all of it
// timed: nextWork[sw], the switch's booked visit on the timing wheel, is
// a lower bound on the earliest cycle at which the switch can mutate any
// state or draw from its tie-break RNG stream. Compaction books it at the
// min of two components:
//
//	nextEvent  the earliest pending calendar event (exact; read off the
//	           calendar word evMask, whose slot bits scheduleSw and the
//	           transmit merge set and the event phase clears)
//	retry      the earliest cycle a queued head can advance, built by the
//	           three queue phases in their fixed order on every switch of
//	           the walk. Inject assigns it — the earliest injBusy expiry
//	           over non-empty injection queues (a credit-starved injection
//	           head unblocks only via this switch's own evCredit/evArrive
//	           chain, which nextEvent already bounds). Allocate lowers it with
//	           its verdict on the queued input heads: now+1 ("hot") if any
//	           head was *eligible* this cycle and not granted — it drew
//	           tie-break randomness, so every subsequent cycle must run —
//	           else the earliest inBusyUntil of a non-empty input VC on an
//	           unsaturated port (a saturated port unblocks when an evCredit
//	           of its own returns a crossbar slot, which nextEvent already
//	           bounds). Transmit lowers it with the earliest outBusy expiry
//	           over ports with queued output packets.
//
// Why the hot/parked split keeps bit-identity: the only randomness a
// switch draws per cycle is one tie per candidate of each *eligible* head
// packet (headRequest, whether its list is cached or not). A head blocked
// on a busy input VC, a saturated input port, a busy output serializer or
// a busy/credit-less injection link is never considered, so it draws
// nothing — skipping those cycles
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
// calendar word, mask words and retry word (indexed by its own id),
// so no word is written by two goroutines in a phase — the same
// indexed-write rule hxlint's shardsafe analyzer enforces. The booking — the nextWork word
// and its bit on the timing wheel — is written only by the sequential
// steps (traffic generation, the transmit merge and compaction), through
// book and unbook, never by the phases, which read the due list as this
// cycle's stable skip verdict. The due list is the current slot's bits
// listed in word order, so it comes out in the ascending switch order of
// the full walk by construction.
//
// Every engine keeps this state, the tests' full-walk oracle included:
// the oracle walks every switch every cycle and never jumps, but it keeps
// the same words with the same code (its compaction simply refolds every
// switch it walked), so the two share one bookkeeping path and differ
// only where engine.fullWalk is tested.
type activityState struct {
	// retry is the queue phases' next-work component (see the file
	// comment; the other, nextEvent, is read off the engine's evMask).
	// nwNever means "no locally provable work".
	retry []int64
	// nextWork is each switch's booked visit: the cycle it next runs the
	// phases, nwNever while it is parked. Compaction books the fold of the
	// two components; traffic generation and the transmit merge only ever
	// move a booking earlier (book), and an early visit is safe (the skip
	// proof runs in both directions).
	nextWork []int64
	// booked is the timing wheel: span slots of ⌈S/64⌉ words each, and bit
	// sw of slot t%span is set iff nextWork[sw] == t. Every booking is less
	// than the event horizon ahead (event delays, serialization expiries
	// and busy-untils are all bounded by one packet's worth of cycles), so
	// a span of horizon+2 slots never aliases two cycles a booking can
	// name.
	booked []uint64
	span   int64
	// due is the current slot's switches, listed at the top of each cycle
	// and again after traffic generation woke a switch (woke). A due switch
	// keeps its bit until compaction, so the current slot is the cycle's
	// due set, and due is the only list the phases and staging merges walk.
	due  []int32
	woke bool
}

// nwNever is the "no locally provable next work" sentinel of the
// next-work words: far beyond any run's cycle budget, small enough that
// min/bound arithmetic cannot overflow.
const nwNever = int64(1) << 62

func newActivityState(switches int, span int64) *activityState {
	a := &activityState{
		retry:    make([]int64, switches),
		nextWork: make([]int64, switches),
		booked:   make([]uint64, span*int64((switches+63)/64)),
		span:     span,
	}
	for i := 0; i < switches; i++ {
		a.retry[i] = nwNever
		a.nextWork[i] = nwNever
	}
	return a
}

// slot is the wheel slot of cycle t: one bit per switch.
func (a *activityState) slot(t int64) []uint64 {
	words := (len(a.nextWork) + 63) >> 6
	i := int(t%a.span) * words
	return a.booked[i : i+words]
}

// book moves sw's visit to cycle t when that is earlier than its booking,
// and books a parked switch; a booking never moves later here (visits are
// lower bounds, so an early one is safe). Sequential steps only.
func (a *activityState) book(sw int32, t int64) {
	if t >= a.nextWork[sw] {
		return
	}
	a.unbook(sw)
	a.nextWork[sw] = t
	a.slot(t)[sw>>6] |= 1 << (sw & 63)
}

// unbook parks sw: its bit leaves the wheel and nextWork is nwNever.
// Sequential steps only.
func (a *activityState) unbook(sw int32) {
	if t := a.nextWork[sw]; t != nwNever {
		a.slot(t)[sw>>6] &^= 1 << (sw & 63)
		a.nextWork[sw] = nwNever
	}
}

// list appends the switches booked for cycle t to dst, in ascending
// switch order.
func (a *activityState) list(t int64, dst []int32) []int32 {
	for i, w := range a.slot(t) {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// actWake marks sw due this cycle. Sequential steps only (traffic
// generation): the switch must run the remaining phases of the current
// cycle exactly as the full walk would, so it is booked into the current
// slot for actMergeWoken to list, and the end-of-cycle compaction then
// refolds its components into a fresh booking. A switch already due sits
// at nextWork == now and is left alone.
func (e *engine) actWake(sw int32) {
	if a := e.act; a.nextWork[sw] > e.now {
		a.book(sw, e.now)
		a.woke = true
	}
}

// actBuildDue opens a cycle: it lists the current wheel slot into the due
// list. Only due switches run the phases and the staging merges this
// cycle; for everyone else the cycle is a proven no-op (the extended
// quiescence argument in the file comment). Burst preloads book into the
// first cycle's slot before it runs, so they are listed here like any
// other visit.
func (e *engine) actBuildDue() {
	a := e.act
	a.due = a.list(e.now, a.due[:0])
	a.woke = false
}

// actMergeWoken lists the current slot again when traffic generation woke
// a switch this cycle, so the inject/allocate and commit/transmit phases
// walk the woken switches too, in ascending switch order as the full walk
// would.
func (e *engine) actMergeWoken() {
	if e.act.woke {
		e.actBuildDue()
	}
}

// actCompact ends the cycle: every switch that ran this cycle — the
// switches of walk(), which is the due list outside the full-walk oracle —
// is unbooked, then booked at the fold of its two components, or left
// parked when it went quiescent. Only walked switches need the refold: a
// parked switch ran nothing, so its components are unchanged and its
// booking still equals their minimum — the one cross-switch lowering, a
// transmit merge routing an event onto a parked calendar, books the
// earlier visit itself (mergeTransmit).
func (e *engine) actCompact() {
	a := e.act
	for _, sw := range e.walk() {
		a.unbook(sw)
		if e.evMask[sw] != 0 || e.holdsPackets(sw) {
			a.book(sw, min(e.nextEvent(sw), a.retry[sw]))
		}
	}
}

// fastForwardTarget reports the next cycle at which the engine can do any
// work: the first non-empty wheel slot after now, bounded by the next
// traffic arrival (nextGen: the open-loop arrival calendar's earliest
// entry, or -1 in burst mode where all traffic preloads), the next
// scheduled fault, and the caller's bound (the burst timeout's
// maxCycles+1, or the open loop's warmup/measurement boundary). It
// returns false when the next cycle must execute anyway (some switch,
// arrival or fault is due at now+1). The wheel holds exactly the
// bookings, so the target is exact: the scan stops at the first booked
// slot, or at the other bounds, whichever comes first.
//
// Unlike the pre-calendar engine this jumps even with packets in flight:
// a switch waiting out an output serialization, a busy input VC or a
// pending credit reports the exact expiry as its next-work time, and the
// skipped cycles are provably no-ops for it (nothing due, no eligible
// head, so no state change and no randomness). A switch whose head is
// eligible — including one that arbitration keeps dropping for lack of a
// downstream credit — reports now+1 and pins the engine to per-cycle
// ticking, because the full walk would draw tie-break randomness for it
// every cycle. verifyActivity audits the bookings against the queue
// ground truth under Config.CheckInvariants. The full-walk oracle never
// jumps: it steps every cycle.
func (e *engine) fastForwardTarget(bound, nextGen int64) (int64, bool) {
	if e.fullWalk {
		return 0, false
	}
	best := bound
	if nextGen >= 0 && nextGen < best {
		best = nextGen
	}
	if e.nextFault < len(e.faultSchedule) && e.faultSchedule[e.nextFault].Cycle < best {
		best = e.faultSchedule[e.nextFault].Cycle
	}
	a := e.act
scan:
	for t := e.now + 1; t < best && t < e.now+a.span; t++ {
		for _, w := range a.slot(t) {
			if w != 0 {
				best = t
				break scan
			}
		}
	}
	if best <= e.now+1 {
		return 0, false
	}
	return best, true
}

// wheelFirst scans switch sw's calendar forward from the next cycle and
// returns the first cycle with a pending event, nwNever when every future
// slot is empty: the audit's slot-by-slot reference for nextEvent.
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

// verifyActivity audits the activity bookkeeping against the ground
// truth (auditPorts checks the occupancy masks and the calendar words
// slot by slot just before): a booking for every switch with work, the
// exact nextEvent (against a scan of the calendar's slots), the folded
// per-switch minimum, the timing wheel's one bit per booking, and — the safety direction of
// the skip proof — that no switch's next-work time sleeps past a provable
// local obligation: a queued output head's busy expiry, a queued input
// head's busy-until on an unsaturated port, or a blocked injection head's
// link release. Wrong words would silently skip a switch with real work
// and corrupt results, so this panics like the flow-control audits.
// Enabled by Config.CheckInvariants via verifyInvariants, which runs after
// a full cycle (post-compaction), when the bookings are in sync with their
// components.
func (e *engine) verifyActivity() {
	a := e.act
	booked := 0
	for sw := 0; sw < e.S; sw++ {
		first, evm := e.wheelFirst(int32(sw)), e.evMask[sw]
		qn := e.queuedPackets(sw)
		nw := a.nextWork[sw]
		if got := e.nextEvent(int32(sw)); got != first {
			panic(fmt.Sprintf("sim: switch %d's calendar word %#x says its next event is at %d, its slots say %d at cycle %d",
				sw, evm, got, first, e.now))
		}
		if nw != nwNever {
			// Every booking is in the future, within the wheel's span, and
			// its bit is set in its own slot (else the visit would silently
			// never fire).
			booked++
			if nw <= e.now || nw >= e.now+a.span {
				panic(fmt.Sprintf("sim: switch %d booked for cycle %d, outside (%d, %d)",
					sw, nw, e.now, e.now+a.span))
			}
			if a.slot(nw)[sw>>6]&(1<<(sw&63)) == 0 {
				panic(fmt.Sprintf("sim: switch %d booked for cycle %d but absent from that wheel slot at cycle %d",
					sw, nw, e.now))
			}
		}
		if evm == 0 && qn == 0 {
			if nw != nwNever || a.retry[sw] != nwNever {
				panic(fmt.Sprintf("sim: quiescent switch %d holds next-work state (%d; retry %d) at cycle %d",
					sw, nw, a.retry[sw], e.now))
			}
			continue
		}
		if nw == nwNever {
			panic(fmt.Sprintf("sim: switch %d has work (calendar %#x, qu %d) but no booked wheel visit at cycle %d",
				sw, evm, qn, e.now))
		}
		if fold := min(first, a.retry[sw]); nw != fold {
			panic(fmt.Sprintf("sim: switch %d folded next-work %d, components say %d at cycle %d",
				sw, nw, fold, e.now))
		}
		// Safety: nextWork must not exceed any provable local obligation.
		// (Being too LOW only costs a wasted wake-up; too high skips work.)
		e.auditNextWorkBounds(int32(sw), nw)
	}
	// The wheel holds no other bit: one set bit per booked switch.
	bitsSet := 0
	for _, w := range a.booked {
		bitsSet += bits.OnesCount64(w)
	}
	if bitsSet != booked {
		panic(fmt.Sprintf("sim: timing wheel holds %d bits for %d booked switches at cycle %d",
			bitsSet, booked, e.now))
	}
}

// auditNextWorkBounds checks the skip-safety direction for one switch:
// every queued head whose unblock time is provable from switch-local
// state bounds nextWork from above. Heads whose unblock is NOT locally
// provable are exempt because they cannot be parked: an eligible input
// head (even one starved of downstream credits) forces retry = now+1,
// and a credit-starved injection head waits on this switch's own
// evCredit/evArrive chain, which nextEvent bounds.
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
			continue // unblocks via a pending evCredit; nextEvent bounds it
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
