package sim

import (
	"fmt"

	"repro/internal/routing"
)

// verifyInvariants audits the engine's flow-control accounting. It is
// enabled by Config.CheckInvariants and panics with a diagnostic on the
// first violation — an accounting bug would otherwise surface as subtly
// wrong throughput numbers rather than a failure.
func (e *engine) verifyInvariants() {
	e.verifyPorts()
	// Activity bookkeeping against ground truth.
	e.verifyActivity()
	// Arrival-calendar integrity (no-op in burst mode).
	e.verifyArrivals()
}

// queuedPackets counts, from the rings, the packets switch sw holds in its
// input VCs, output buffers and injection queues.
func (e *engine) queuedPackets(sw int) int32 {
	var n int32
	for gp := int32(sw * e.P); gp < int32((sw+1)*e.P); gp++ {
		for invc := gp * int32(e.V); invc < (gp+1)*int32(e.V); invc++ {
			n += int32(e.inQ.len(invc))
		}
		n += int32(e.outQ.len(gp))
	}
	for g := int32(sw * e.K); g < int32((sw+1)*e.K); g++ {
		n += int32(e.injQ.len(g))
	}
	return n
}

// verifyPorts panics on the first violation auditPorts finds.
func (e *engine) verifyPorts() {
	if err := e.auditPorts(); err != nil {
		panic(err.Error())
	}
}

// auditPorts is the per-port half of the audit — the credit ledger and
// its conservation per live link, the occupancy and crossbar counts and
// the three masks, buffer and crossbar bounds, and each switch's calendar
// word — in error form. A mask bit out of step with its rings, or a
// calendar bit with its slot, would silently skip a scan or an event
// drain with real work in it, or park a switch that holds packets or
// events: a determinism bug, not just a perf bug; a drifted count would
// silently misprice qCost. Unlike the activity and arrival audits it
// holds at any inter-cycle point, a freshly restored snapshot included:
// applySnapshot refuses a snapshot that fails it. It states every identity
// from the rings, the ledger and the slots itself and never calls
// rebuildDerived, so it stays an independent reference for what a restore
// rebuilds.
func (e *engine) auditPorts() error {
	V, P, R, K := int32(e.V), int32(e.P), int32(e.R), int32(e.K)
	// The occupancy masks the rings call for, compared with the engine's
	// word by word after the port walk, so a stray bit past the radix (or
	// an injection bit below R) fails too.
	inWant := make([]uint64, len(e.inMask))
	outWant := make([]uint64, len(e.outMask))
	injWant := make([]uint64, len(e.injMask))
	// What the calendars hold pending: per input VC, the arrivals into it
	// and the credits it still owes (one per transfer out of it that has
	// not left); per output (port, VC), the transfers crossing into it, to
	// which the port walk adds the packets the output queues on the VC.
	SPV := int32(e.S) * P * V
	arriving, owed, outVC := make([]int32, SPV), make([]int32, SPV), make([]int32, SPV)
	for _, slot := range e.events {
		for _, ev := range slot {
			switch ev.kind {
			case evArrive:
				arriving[ev.a]++
			case evCredit:
				owed[ev.a]++
			case evXferDone:
				outVC[ev.a*V+int32(ev.vc)]++
			}
		}
	}
	for gp := int32(0); gp < int32(e.S)*P; gp++ {
		sw, p := gp/P, gp%P
		w, b := e.maskBit(sw, int(p))
		if e.outQ.len(gp) > 0 {
			outWant[w] |= b
		}
		if p >= R && e.injQ.len(sw*K+p-R) > 0 {
			injWant[w] |= b
		}
		// The ledger is indexed by sender: the credits for gp's input VCs are
		// the entries of the port at the far end of its link, and a sender
		// never holds more credits than its receiver has free slots.
		var sum int32
		sender := e.up[gp]
		for v := int32(0); v < V; v++ {
			if e.inQ.len(gp*V+v) > 0 {
				inWant[w] |= b
			}
			c := e.credits[sender*V+v]
			if c < 0 || int(c) > e.cfg.InputBufPkts-e.inQ.len(gp*V+v) {
				return fmt.Errorf("sim: credits[%d,%d] = %d for input VC (%d,%d) holding %d of %d packets at cycle %d",
					sender, v, c, gp, v, e.inQ.len(gp*V+v), e.cfg.InputBufPkts, e.now)
			}
			sum += int32(c)
		}
		if sum != int32(e.pq[gp].credSum) {
			return fmt.Errorf("sim: credSum[%d] = %d, but the credits for its input VCs (ledger of port %d) sum to %d at cycle %d",
				gp, e.pq[gp].credSum, sender, sum, e.now)
		}
		// The crossbar counts: the transfers out of the port are the
		// credits its input VCs owe, its output holds per VC what it queues
		// plus what crosses into it, and each of the three sits within its
		// bound.
		queued := int32(e.outQ.len(gp))
		for j := 0; j < int(queued); j++ {
			outVC[gp*V+int32(e.outQ.tag[e.outQ.slot(gp, j)])]++
		}
		var out, holds int32
		for v := gp * V; v < (gp+1)*V; v++ {
			out += owed[v]
			holds += outVC[v]
			if int32(e.outVCCount[v]) != outVC[v] {
				return fmt.Errorf("sim: outVCCount[%d,%d] = %d, but the port holds %d packets of the VC, queued or crossing into it, at cycle %d",
					gp, v-gp*V, e.outVCCount[v], outVC[v], e.now)
			}
		}
		if int32(e.inInflight[gp]) != out {
			return fmt.Errorf("sim: inInflight[%d] = %d, but its input VCs owe %d credits on the calendar at cycle %d",
				gp, e.inInflight[gp], out, e.now)
		}
		if int32(e.pq[gp].outTotal) != holds {
			return fmt.Errorf("sim: outTotal[%d] = %d, actual %d at cycle %d — a drifted total "+
				"would silently misprice every allocation through this output",
				gp, e.pq[gp].outTotal, holds, e.now)
		}
		if in := holds - queued; int(holds) > e.cfg.OutputBufPkts || int(in) > e.cfg.XbarSpeedup || int(out) > e.cfg.XbarSpeedup {
			return fmt.Errorf("sim: port %d holds %d of %d packets, %d crossing into it and %d out of it with a speedup of %d at cycle %d",
				gp, holds, e.cfg.OutputBufPkts, in, out, e.cfg.XbarSpeedup, e.now)
		}
	}
	for w := range inWant {
		if e.inMask[w] != inWant[w] || e.outMask[w] != outWant[w] || e.injMask[w] != injWant[w] {
			return fmt.Errorf("sim: mask word %d of switch %d is (in %#x, out %#x, inj %#x), the rings say (%#x, %#x, %#x) at cycle %d",
				w%e.maskWords, w/e.maskWords, e.inMask[w], e.outMask[w], e.injMask[w],
				inWant[w], outWant[w], injWant[w], e.now)
		}
	}
	// The calendar words the slots call for: bit t iff slot t holds an
	// event, and no bit at or past the horizon.
	for sw := 0; sw < e.S; sw++ {
		var want uint64
		for t, slot := range e.events[int64(sw)*e.horizon:][:e.horizon] {
			if len(slot) > 0 {
				want |= 1 << t
			}
		}
		if e.evMask[sw] != want {
			return fmt.Errorf("sim: calendar word of switch %d is %#x, its slots say %#x at cycle %d",
				sw, e.evMask[sw], want, e.now)
		}
	}
	// Credit conservation per live link: every credit sender s has spent
	// on VC v stands for a packet between its output and input VC v at the
	// far end up[s] — queued or crossing into s (outVCCount), on the link
	// (a pending evArrive), in the input buffer, or crossing out of it with
	// its slot not yet freed (an owed credit). A server port's credits
	// meter its own input VCs, and its output ejects without spending any,
	// so the first term is dropped there. A dead link is exempt: the
	// packets lost on it never return their credits.
	for s := int32(0); s < int32(e.S)*P; s++ {
		if e.portDead[s] {
			continue
		}
		far := e.up[s]
		for v := int32(0); v < V; v++ {
			held := arriving[far*V+v] + int32(e.inQ.len(far*V+v)) + owed[far*V+v]
			if s%P < R {
				held += int32(e.outVCCount[s*V+v])
			}
			if spent := int32(e.cfg.InputBufPkts) - int32(e.credits[s*V+v]); spent != held {
				return fmt.Errorf("sim: credit conservation on port %d VC %d: %d credits spent, %d packets behind them toward port %d at cycle %d",
					s, v, spent, held, far, e.now)
			}
		}
	}
	return e.auditHeads()
}

// auditHeads holds the head cache to what it stands for: an empty input VC
// has no head state, and a cached list lies inside its switch's handed-out
// region and equals, entry for entry, the packed Candidates of the VC's
// current head. A stale or corrupted list would price the head off routes
// it no longer has, and bit-identity would be lost without a trace.
func (e *engine) auditHeads() error {
	var scr routing.Scratch
	var cands []routing.Candidate
	V, vcs := int32(e.V), int32(e.P*e.V)
	for invc := int32(0); invc < int32(len(e.hcLen)); invc++ {
		n := int(e.hcLen[invc])
		if e.inQ.len(invc) == 0 {
			if n != hcUnseen {
				return fmt.Errorf("sim: head cache state %d on empty input VC %d at cycle %d", n, invc, e.now)
			}
			continue
		}
		if n < hcCached {
			continue
		}
		n -= hcCached
		sw, off := invc/vcs, int(e.hcOff[invc])
		if off+n > int(e.hcTop[sw]) {
			return fmt.Errorf("sim: head cache of input VC %d: %d entries at %d pass switch %d's top %d at cycle %d",
				invc, n, off, sw, e.hcTop[sw], e.now)
		}
		pkt := &e.pool[e.inQ.peek(invc)]
		cands = e.mech.Candidates(sw, &pkt.st, int(invc%V), &scr, cands[:0])
		got := e.hcArena[int(sw)*e.hcCap+off:][:n]
		if pkt.st.Dst == sw || len(cands) != n {
			return fmt.Errorf("sim: head cache of input VC %d holds %d entries, its head (bound for switch %d) has %d candidates at cycle %d",
				invc, n, pkt.st.Dst, len(cands), e.now)
		}
		for i, c := range cands {
			if want, ok := hcPack(c.Port, c.VC, e.penaltyCost(c.Penalty)); !ok || got[i] != want {
				return fmt.Errorf("sim: head cache of input VC %d, entry %d is %#x, Candidates says %#x at cycle %d",
					invc, i, got[i], want, e.now)
			}
		}
	}
	return nil
}
