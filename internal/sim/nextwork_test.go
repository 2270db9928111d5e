package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// Edge cases of the event-calendar jump rule. TestEngineModesBitIdentical
// holds jumps to the full walk, a fault inside a skipped stretch included
// (its 3x3x3 sparse row); the tests here pin two more ways a jump can go
// wrong on handcrafted engines: a pending release (an evCredit) due at the
// exact jump target, and a credit-starved head whose wake-up only a remote
// switch can provide.

// TestJumpLandsOnReleaseExpiry parks a handcrafted engine on a single
// pending evCredit — the event that returns an input port's crossbar slot
// together with the credit — and checks the jump rule aims at exactly its
// cycle — one cycle late would free the slot a cycle after the full walk,
// one early would execute a provably idle cycle — and that stepping the
// landed cycle drops inInflight there.
func TestJumpLandsOnReleaseExpiry(t *testing.T) {
	e := ledgerEngine(t)
	const sw, relAt = int32(2), int64(10)
	gp := sw * int32(e.P)
	invc := gp * int32(e.V)
	// One granted transfer out of input VC (gp, 0) is crossing the switch:
	// its slot is taken, the sender is one credit short.
	e.inInflight[gp] = 1
	e.credits[e.up[gp]*int32(e.V)]--
	e.pq[gp].credSum--
	e.scheduleSw(sw, relAt, event{kind: evCredit, a: invc})
	if e.holdsPackets(sw) {
		t.Fatal("a pending release counts as queued work")
	}
	// Refold and book as the end of a cycle that ran switch 2 would.
	e.actWake(sw)
	e.act.due = append(e.act.due[:0], sw)
	e.actCompact()
	e.act.due = e.act.due[:0]

	next, ok := e.fastForwardTarget(1001, -1)
	if !ok || next != relAt {
		t.Fatalf("fastForwardTarget = (%d, %v), want (%d, true)", next, ok, relAt)
	}
	// Land the jump exactly as the run loop does and execute the cycle.
	e.now = next
	e.stepCycle(nil)
	if e.inInflight[gp] != 0 {
		t.Fatalf("release not applied at the jump target: inInflight = %d", e.inInflight[gp])
	}
	if e.evMask[sw] != 0 || e.nextEvent(sw) != nwNever {
		t.Fatalf("calendar word %#x (next event %d) after draining the only event, want empty",
			e.evMask[sw], e.nextEvent(sw))
	}
	e.verifyInvariants() // the credit went back with the slot
	// The switch went quiescent and left the wheel: the very next jump is
	// unbounded again.
	if next, ok = e.fastForwardTarget(1001, -1); !ok || next != 1001 {
		t.Fatalf("fastForwardTarget after drain = (%d, %v), want (1001, true)", next, ok)
	}
}

// TestRemoteCreditVetoesSkip pins the unskippable side of the extended
// skip proof: a head packet that is eligible but starved of downstream
// credits draws tie-break randomness every cycle in the full walk, and
// its credits return through a *remote* switch's transmit — not through
// any switch-local timer. The switch must therefore report next-work at
// now+1 (vetoing every jump) until the credit comes back, at which point
// the head must be granted.
func TestRemoteCreditVetoesSkip(t *testing.T) {
	h := topo.MustHyperX(3, 3)
	nw := topo.NewNetwork(h, nil)
	mech, err := core.New(nw, core.PolarizedRoutes, 4)
	if err != nil {
		t.Fatal(err)
	}
	pat := uniformOn(t, h, 3)
	e, err := newEngine(RunOptions{
		Net: nw, ServersPerSwitch: 3, Mechanism: mech, Pattern: pat,
		Load: 0.5, MeasureCycles: 10, Seed: 1, Config: DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A packet parked at the head of a link-port input VC of switch 2,
	// bound for a different switch so no ejection candidate can sink it.
	const sw = int32(2)
	id := e.allocPacket()
	pkt := &e.pool[id]
	pkt.birth = 0
	pkt.dstLocal = 0
	e.mech.Init(&pkt.st, sw, 5, e.r)
	vc := e.mech.InjectVCs(&pkt.st, nil)[0]
	gp := sw * int32(e.P) // a link port (port 0 < R)
	invc := gp*int32(e.V) + int32(vc)
	e.inQ.push(invc, id)
	w, b := e.maskBit(sw, 0)
	e.inMask[w] |= b
	// Starve every downstream credit, keeping the ledger sums consistent.
	for i := range e.credits {
		e.credits[i] = 0
	}
	for i := range e.pq {
		e.pq[i].credSum = 0
	}
	e.actWake(sw)
	e.stepCycle(nil)
	if got := e.act.retry[sw]; got != e.now+1 {
		t.Fatalf("credit-starved eligible head: retry = %d, want hot (%d)", got, e.now+1)
	}
	if _, ok := e.fastForwardTarget(1001, -1); ok {
		t.Fatal("fast-forward offered while an eligible head waits on a remote credit")
	}
	// The credit returns (a remote switch's transmit would do this write):
	// the very next cycle must grant the head.
	for i := range e.credits {
		e.credits[i] = int16(e.cfg.InputBufPkts)
	}
	for i := range e.pq {
		e.pq[i].credSum = int16(e.V * e.cfg.InputBufPkts)
	}
	e.now++
	e.stepCycle(nil)
	if n := e.inQ.len(invc); n != 0 {
		t.Fatalf("head not granted after the credit returned: input VC holds %d", n)
	}
}
