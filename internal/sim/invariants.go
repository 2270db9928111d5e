package sim

import "fmt"

// verifyInvariants audits the engine's flow-control accounting. It is
// enabled by Config.CheckInvariants and panics with a diagnostic on the
// first violation — an accounting bug would otherwise surface as subtly
// wrong throughput numbers rather than a failure.
func (e *engine) verifyInvariants() {
	e.verifyPorts()
	// Packet conservation: every live packet is somewhere.
	if e.inFlight < 0 {
		panic(fmt.Sprintf("sim: inFlight = %d negative at cycle %d", e.inFlight, e.now))
	}
	inUse := int64(len(e.pool)) - int64(len(e.free))
	if inUse != e.inFlight {
		panic(fmt.Sprintf("sim: pool holds %d packets but inFlight = %d at cycle %d",
			inUse, e.inFlight, e.now))
	}
	// Per-switch phase-skip counters against the rings they summarize: a
	// drifted counter would silently skip a phase scan with real work in
	// it, which is a determinism bug, not just a perf bug.
	for sw := 0; sw < e.S; sw++ {
		in, out, inj := e.queuedPackets(sw)
		if e.swInPkts[sw] != in || e.swOutPkts[sw] != out || e.swInjPkts[sw] != inj {
			panic(fmt.Sprintf("sim: switch %d queue counters are (in %d, out %d, inj %d), actual (%d, %d, %d) at cycle %d",
				sw, e.swInPkts[sw], e.swOutPkts[sw], e.swInjPkts[sw], in, out, inj, e.now))
		}
	}
	// Activity bookkeeping against ground truth (no-op when disabled).
	e.verifyActivity()
	// Arrival-calendar integrity (no-op in burst mode).
	e.verifyArrivals()
}

// queuedPackets counts, from the rings, the packets switch sw holds in its
// input VCs, output buffers and injection queues.
func (e *engine) queuedPackets(sw int) (in, out, inj int32) {
	for gp := int32(sw * e.P); gp < int32((sw+1)*e.P); gp++ {
		for invc := gp * int32(e.V); invc < (gp+1)*int32(e.V); invc++ {
			in += int32(e.inQ.len(invc))
		}
		out += int32(e.outQ.len(gp))
	}
	for g := int32(sw * e.K); g < int32((sw+1)*e.K); g++ {
		inj += int32(e.injQ.len(g))
	}
	return in, out, inj
}

// verifyPorts panics on the first violation auditPorts finds.
func (e *engine) verifyPorts() {
	if err := e.auditPorts(); err != nil {
		panic(err.Error())
	}
}

// auditPorts is the per-port half of the audit — the credit ledger, the
// occupancy counts and masks, buffer and crossbar bounds — in error form.
// Unlike the activity and arrival audits it holds at any inter-cycle
// point, a freshly restored snapshot included: applySnapshot refuses a
// snapshot that fails it. It states every identity from the rings and the
// ledger itself and never calls rebuildDerived, so it stays an independent
// reference for what a restore rebuilds.
func (e *engine) auditPorts() error {
	V := int32(e.V)
	P := int32(e.P)
	// The occupancy masks the rings call for, compared with the engine's
	// word by word after the port walk, so a stray bit past the radix fails
	// too.
	inWant := make([]uint64, len(e.inMask))
	outWant := make([]uint64, len(e.outMask))
	for gp := int32(0); gp < int32(e.S)*P; gp++ {
		// Credit bounds, per-port sum consistency and link conservation.
		var sum int32
		w, b := e.maskBit(gp/P, int(gp%P))
		for v := int32(0); v < V; v++ {
			if e.inQ.len(gp*V+v) > 0 {
				inWant[w] |= b
			}
		}
		if e.outQ.len(gp) > 0 {
			outWant[w] |= b
		}
		// The ledger is indexed by sender: the credits for gp's input VCs are
		// the entries of the port at the far end of its link, and a sender
		// never holds more credits than its receiver has free slots.
		sender := e.up[gp]
		for v := int32(0); v < V; v++ {
			c := e.credits[sender*V+v]
			if c < 0 || int(c) > e.cfg.InputBufPkts-e.inQ.len(gp*V+v) {
				return fmt.Errorf("sim: credits[%d,%d] = %d for input VC (%d,%d) holding %d of %d packets at cycle %d",
					sender, v, c, gp, v, e.inQ.len(gp*V+v), e.cfg.InputBufPkts, e.now)
			}
			sum += int32(c)
			if e.outVCCount[gp*V+v] < 0 {
				return fmt.Errorf("sim: outVCCount[%d,%d] = %d negative at cycle %d",
					gp, v, e.outVCCount[gp*V+v], e.now)
			}
		}
		if sum != int32(e.pq[gp].credSum) {
			return fmt.Errorf("sim: credSum[%d] = %d, but the credits for its input VCs (ledger of port %d) sum to %d at cycle %d",
				gp, e.pq[gp].credSum, sender, sum, e.now)
		}
		// Output buffer occupancy within capacity.
		if occ := e.outQ.len(gp) + int(e.outReserved[gp]); occ > e.cfg.OutputBufPkts {
			return fmt.Errorf("sim: output %d holds %d > %d packets at cycle %d",
				gp, occ, e.cfg.OutputBufPkts, e.now)
		}
		if got := e.outQ.len(gp) + int(e.outReserved[gp]); int(e.pq[gp].outTotal) != got {
			return fmt.Errorf("sim: outTotal[%d] = %d, actual %d at cycle %d — a drifted total "+
				"would silently misprice every allocation through this output",
				gp, e.pq[gp].outTotal, got, e.now)
		}
		// Crossbar concurrency within speedup: outReserved counts the
		// transfers into the port, inInflight those out of it.
		if e.outReserved[gp] < 0 || int(e.outReserved[gp]) > e.cfg.XbarSpeedup {
			return fmt.Errorf("sim: outReserved[%d] = %d at cycle %d", gp, e.outReserved[gp], e.now)
		}
		if e.inInflight[gp] < 0 || int(e.inInflight[gp]) > e.cfg.XbarSpeedup {
			return fmt.Errorf("sim: inInflight[%d] = %d at cycle %d", gp, e.inInflight[gp], e.now)
		}
	}
	for w := range inWant {
		if e.inMask[w] != inWant[w] || e.outMask[w] != outWant[w] {
			return fmt.Errorf("sim: mask word %d of switch %d is (in %#x, out %#x), the rings say (%#x, %#x) at cycle %d",
				w%e.maskWords, w/e.maskWords, e.inMask[w], e.outMask[w], inWant[w], outWant[w], e.now)
		}
	}
	return nil
}
