package sim

import (
	"fmt"
	"math"
)

// This file implements the open-loop generation's arrival calendar: the
// per-server geometric next-arrival sampling that replaced the per-cycle
// Bernoulli draw over every server (the hyperx-sim/4 engine bump).
//
// The marginal process is unchanged. A server generating with probability
// p each cycle is a Bernoulli process; the gap between consecutive
// arrivals (failures before the next success) is Geom(p):
//
//	P(gap = k) = (1-p)^k p,   k = 0, 1, 2, ...
//
// Inverting the CDF with one uniform draw u in (0, 1],
//
//	gap = floor(ln(u) / ln(1-p)),
//
// reproduces exactly that distribution: gap = k iff (1-p)^k >= u >
// (1-p)^(k+1). So instead of S*K draws per cycle the engine makes one
// draw per *arrival* — O(load) instead of O(1) per server-cycle — and,
// because the calendar knows the next arrival cycle in advance, idle
// stretches of an open-loop run can fast-forward exactly like burst
// drains (run.go).
//
// Determinism: arrivals live in a binary min-heap ordered by (cycle,
// server), so the servers due in one cycle pop in ascending server id —
// the iteration order of the per-cycle loop they replace. All draws
// (first arrivals at engine start in server order, then one re-draw per
// generated packet) come from the single generation stream in the
// sequential generation phase, so sharded runs stay bit-identical for
// every worker count, with activity tracking on or off.
//
// The RNG *consumption pattern* differs from per-cycle draws — identical
// marginals, new draw sequence — which is why the calendar was an
// EngineVersion bump; TestGeometricGenerationEquivalence locks the
// binomial law in.

// arrival is one pending generation event: server `server` emits its next
// packet at cycle `at`.
type arrival struct {
	at     int64
	server int32
}

// arrivalBefore orders the calendar: earlier cycle first, ascending server
// id within a cycle (the draw order of the per-cycle walk).
func arrivalBefore(a, b arrival) bool {
	return a.at < b.at || (a.at == b.at && a.server < b.server)
}

// maxArrivalGap clamps geometric draws so a pathologically small p
// (e.g. 1e-300) cannot overflow the int64 cycle arithmetic; a gap this
// long never fires within any run's cycle budget.
const maxArrivalGap = int64(1) << 61

// sampleArrivalGap draws the number of idle cycles before the next arrival
// of one server: Geom(p) via CDF inversion. The uniform is taken as
// 1-Float64() so it lies in (0, 1] — ln(0) would yield an infinite gap.
// For p == 1, ln(1-p) is -Inf and the quotient is +0: an arrival
// every cycle, as it should be.
func (e *engine) sampleArrivalGap() int64 {
	u := 1 - e.r.Float64()
	g := math.Log(u) / e.logOneMinusGenProb
	if g >= float64(maxArrivalGap) {
		return maxArrivalGap
	}
	return int64(g)
}

// arrivalLog is ln(1-p), the divisor of every gap draw, for a server's
// per-cycle generation probability p = load / PacketPhits. Both
// initArrivals and a snapshot restore take it from here, so they agree.
func (e *engine) arrivalLog(load float64) float64 {
	return math.Log1p(-(load / float64(e.cfg.PacketPhits)))
}

// initArrivals seeds the calendar for an offered load: one first-arrival
// draw per server, in server order (the deterministic consumption
// contract), then a heapify that consumes no randomness.
func (e *engine) initArrivals(load float64) {
	e.logOneMinusGenProb = e.arrivalLog(load)
	n := e.S * e.K
	e.arrQ = make([]arrival, n)
	for g := 0; g < n; g++ {
		e.arrQ[g] = arrival{at: e.sampleArrivalGap(), server: int32(g)}
	}
	for i := n/2 - 1; i >= 0; i-- {
		e.arrSiftDown(i)
	}
}

// nextArrivalCycle reports the earliest pending arrival, or -1 when the
// calendar is empty (burst mode).
func (e *engine) nextArrivalCycle() int64 {
	if len(e.arrQ) == 0 {
		return -1
	}
	return e.arrQ[0].at
}

// generateArrivals emits a packet for every server whose arrival is due
// this cycle, in ascending server order, re-sampling each one's next
// arrival as it goes: the generation phase of the geometric engine.
func (e *engine) generateArrivals() {
	for len(e.arrQ) > 0 && e.arrQ[0].at <= e.now {
		e.generate(e.arrQ[0].server)
		e.arrQ[0].at = e.now + 1 + e.sampleArrivalGap()
		e.arrSiftDown(0)
	}
}

// arrSiftDown restores the heap below index i after its entry's cycle
// moved later (the only mutation: a served root re-samples forward).
func (e *engine) arrSiftDown(i int) {
	q := e.arrQ
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && arrivalBefore(q[r], q[l]) {
			c = r
		}
		if !arrivalBefore(q[c], q[i]) {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// checkArrivals states the arrival calendar's contract: it lists each of
// servers exactly once, the heap order holds at every node, and no entry
// is due at or before cycle after (a due entry left behind would silently
// drop that server's traffic). The audit holds the engine's calendar to it
// after each generation phase (verifyArrivals), a restore a snapshot's
// before installing it (applySnapshot).
func checkArrivals(q []arrival, servers int, after int64) error {
	if len(q) != servers {
		return fmt.Errorf("arrival calendar holds %d servers, want %d", len(q), servers)
	}
	listed := make([]bool, servers)
	for i, a := range q {
		switch {
		case a.server < 0 || int(a.server) >= servers || listed[a.server]:
			return fmt.Errorf("arrival calendar entry %d names server %d: out of range or repeated", i, a.server)
		case i > 0 && arrivalBefore(a, q[(i-1)/2]):
			return fmt.Errorf("arrival calendar entry %d (server %d) is out of heap order", i, a.server)
		case a.at <= after:
			return fmt.Errorf("server %d's arrival at cycle %d is due at or before cycle %d", a.server, a.at, after)
		}
		listed[a.server] = true
	}
	return nil
}

// verifyArrivals panics on the first violation of the arrival calendar's
// contract (checkArrivals) after the generation phase of cycle now.
// Enabled by Config.CheckInvariants alongside the flow-control and
// activity audits; a burst's calendar is empty, and skipped.
func (e *engine) verifyArrivals() {
	if e.arrQ == nil {
		return
	}
	if err := checkArrivals(e.arrQ, e.S*e.K, e.now); err != nil {
		panic(fmt.Sprintf("sim: %v after generation at cycle %d", err, e.now))
	}
}
