package sim

import (
	"bytes"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// runBytes executes one configuration and returns the stable binary
// encoding of its Result — the byte-identity currency of the cache and the
// work queue, and so the right equality for the activity contract.
func runBytes(t testing.TB, o RunOptions) []byte {
	t.Helper()
	res, err := Run(o)
	if err != nil {
		t.Fatalf("run (activity=%v, workers=%d): %v", !o.fullWalk, o.Workers, err)
	}
	return res.AppendBinary(nil)
}

// TestWheelAuditsCatchDrift: verifyActivity holds the timing wheel to one
// bit per booked switch. Each corruption below breaks that on an engine
// taken mid-run — a stray bit for a parked switch, a booked switch's bit
// cleared, a booking outside (now, now+span) — and the audit must panic
// on it, while the intact engine passes.
func TestWheelAuditsCatchDrift(t *testing.T) {
	// midRun returns an audited open-loop engine stopped after cycle 300,
	// with a booked switch and a parked one.
	midRun := func(t *testing.T) (e *engine, booked, parked int32) {
		o := fastForwardFixture(t, RunOptions{Load: 0.3, MeasureCycles: 301, Seed: 4})
		e, err := newEngine(o)
		if err != nil {
			t.Fatal(err)
		}
		e.warmStart, e.warmEnd = o.WarmupCycles, o.WarmupCycles+o.MeasureCycles
		e.initArrivals(o.Load)
		if err := e.loop(o, func() bool { return e.now >= e.warmEnd }, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		e.now-- // back on the last stepped cycle, where the audit runs
		booked, parked = -1, -1
		for sw := int32(0); sw < int32(e.S); sw++ {
			if e.act.nextWork[sw] == nwNever {
				parked = sw
			} else {
				booked = sw
			}
		}
		if booked < 0 || parked < 0 {
			t.Fatalf("cycle %d has no booked (%d) or no parked (%d) switch", e.now, booked, parked)
		}
		return e, booked, parked
	}
	t.Run("Intact", func(t *testing.T) {
		e, _, _ := midRun(t)
		e.verifyActivity()
	})
	audit := func(name, want string, corrupt func(e *engine, booked, parked int32)) {
		t.Run(name, func(t *testing.T) {
			e, booked, parked := midRun(t)
			corrupt(e, booked, parked)
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, want) {
					t.Errorf("audit said %q, want it to mention %q", msg, want)
				}
			}()
			e.verifyActivity()
		})
	}
	audit("stray-bit", "bits for", func(e *engine, _, parked int32) {
		e.act.slot(e.now + 1)[parked>>6] |= 1 << (parked & 63)
	})
	audit("cleared-bit", "absent from that wheel slot", func(e *engine, booked, _ int32) {
		e.act.slot(e.act.nextWork[booked])[booked>>6] &^= 1 << (booked & 63)
	})
	audit("booking-out-of-span", "outside", func(e *engine, booked, _ int32) {
		a := e.act
		a.unbook(booked)
		a.book(booked, e.now+a.span)
	})
}

// TestFullWalkVisitsEverySwitchEveryCycle pins what makes the oracle an
// oracle. It shares the engine's activity bookkeeping and only one bool
// sets it apart, so a change that let it follow the due list or
// fast-forward would quietly compare the engine against itself. At a load sparse enough that
// production skips both switches and cycles, the full walk must step every
// cycle and walk all S switches, in order, on each one.
func TestFullWalkVisitsEverySwitchEveryCycle(t *testing.T) {
	for _, fullWalk := range []bool{true, false} {
		o := fastForwardFixture(t, RunOptions{Load: 0.02, WarmupCycles: 100, MeasureCycles: 1400, Seed: 9})
		o.fullWalk = fullWalk
		e, err := newEngine(o)
		if err != nil {
			t.Fatal(err)
		}
		e.warmStart, e.warmEnd = o.WarmupCycles, o.WarmupCycles+o.MeasureCycles
		e.initArrivals(o.Load)
		all := make([]int32, e.S)
		for sw := range all {
			all[sw] = int32(sw)
		}
		var stepped, skipped, partial int64
		want := e.now
		// The loop calls overrun once per stepped cycle, before the cycle
		// runs, so walk() still holds the previous stepped cycle's list.
		lastWalk := func() {
			if !slices.Equal(e.walk(), all) {
				partial++
			}
		}
		overrun := func() error {
			if stepped > 0 {
				lastWalk()
			}
			skipped += e.now - want
			stepped++
			want = e.now + 1
			return nil
		}
		if err := e.loop(o, func() bool { return e.now >= e.warmEnd }, overrun); err != nil {
			t.Fatal(err)
		}
		lastWalk()
		if e.foldWindow().deliveredPkts == 0 {
			t.Fatalf("fullWalk=%v: no traffic delivered in the window; the regime exercises nothing", fullWalk)
		}
		if fullWalk {
			if skipped != 0 || stepped != e.warmEnd {
				t.Errorf("full walk stepped %d of %d cycles (%d skipped)", stepped, e.warmEnd, skipped)
			}
			if partial != 0 {
				t.Errorf("full walk left switches out on %d of %d cycles", partial, stepped)
			}
		} else if skipped == 0 || partial == 0 {
			// Production must differ here, or the checks above prove nothing.
			t.Errorf("the due walk skipped %d cycles and walked a partial list on %d: the regime is too dense",
				skipped, partial)
		}
	}
}

// TestFastForwardTarget unit-tests the jump rule on a handcrafted engine:
// the target is the first booked wheel slot after now, bounded by the
// next arrival, the next scheduled fault and the caller's bound, and
// refused outright while any switch is hot (next-work at now+1).
func TestFastForwardTarget(t *testing.T) {
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
	// An empty engine has nothing due before the caller's bound: jump
	// straight to it.
	if next, ok := e.fastForwardTarget(1001, -1); !ok || next != 1001 {
		t.Fatalf("empty-engine target = (%d, %v), want (1001, true)", next, ok)
	}
	// With no events but a future arrival pending, the arrival is the target.
	if next, ok := e.fastForwardTarget(1001, 40); !ok || next != 40 {
		t.Fatalf("arrival-only target = (%d, %v), want (40, true)", next, ok)
	}
	// An arrival due next cycle means there is nothing to skip.
	if _, ok := e.fastForwardTarget(1001, 1); ok {
		t.Fatal("fast-forward offered with an arrival due next cycle")
	}
	// One event 10 cycles out on switch 2, nothing queued anywhere.
	// Compaction only refolds and re-books switches on the due list, so
	// each handcrafted component write below marks switch 2 due first — in
	// the engine proper the writers are the switch's own phases, which
	// only run when it is due. The due list is cleared afterwards so
	// fastForwardTarget sees the state a jump decision sees.
	refold := func() {
		e.actWake(2)
		e.act.due = append(e.act.due[:0], 2)
		e.actCompact()
		e.act.due = e.act.due[:0]
	}
	e.scheduleSw(2, 10, event{kind: evCredit, a: 2 * int32(e.P*e.V)})
	refold()
	next, ok := e.fastForwardTarget(1001, -1)
	if !ok || next != 10 {
		t.Fatalf("fastForwardTarget = (%d, %v), want (10, true)", next, ok)
	}
	// A nearer arrival beats the event; a later one loses to it.
	if next, ok = e.fastForwardTarget(1001, 6); !ok || next != 6 {
		t.Fatalf("arrival-bounded target = (%d, %v), want (6, true)", next, ok)
	}
	if next, ok = e.fastForwardTarget(1001, 30); !ok || next != 10 {
		t.Fatalf("event-bounded target = (%d, %v), want (10, true)", next, ok)
	}
	// The run loop's jump on this state: a drained burst — nothing in
	// flight, an empty calendar — stays put and leaves the exit to the end
	// check, while the same engine with a packet in flight jumps to the
	// event (the loop increment then lands on it).
	e.warmEnd = 1001
	if e.fastForward(); e.now != 0 {
		t.Fatalf("a drained burst jumped to cycle %d", e.now+1)
	}
	id := e.allocPacket()
	if e.fastForward(); e.now != 9 {
		t.Fatalf("the in-flight jump lands on cycle %d, want the event at 10", e.now+1)
	}
	e.freePacket(id)
	e.now = 0
	// A nearer fault bounds the jump.
	e.faultSchedule = []FaultEvent{{Cycle: 7, Edge: topo.Edge{U: 0, V: 1}}}
	if next, ok = e.fastForwardTarget(1001, -1); !ok || next != 7 {
		t.Fatalf("fault-bounded target = (%d, %v), want (7, true)", next, ok)
	}
	// The caller's bound (burst timeout, warm/measure boundary) caps it too.
	e.faultSchedule = nil
	if next, ok = e.fastForwardTarget(5, -1); !ok || next != 5 {
		t.Fatalf("bound-capped target = (%d, %v), want (5, true)", next, ok)
	}
	// A hot switch — one whose allocate phase saw an eligible head and so
	// must run again next cycle — vetoes jumping entirely.
	e.act.retry[2] = e.now + 1
	refold()
	if _, ok = e.fastForwardTarget(1001, -1); ok {
		t.Fatal("fast-forward offered despite a hot switch")
	}
	e.act.retry[2] = nwNever
	refold()
	if next, ok = e.fastForwardTarget(1001, -1); !ok || next != 10 {
		t.Fatalf("target after cooling the hot switch = (%d, %v), want (10, true)", next, ok)
	}
	// A timed retry (a head waiting out a busy-until) is jumpable to, and
	// beats a later event.
	e.act.retry[2] = 4
	refold()
	if next, ok = e.fastForwardTarget(1001, -1); !ok || next != 4 {
		t.Fatalf("busy-until target = (%d, %v), want (4, true)", next, ok)
	}
	e.act.retry[2] = nwNever
	// An event due next cycle means there is nothing to skip.
	e.scheduleSw(2, 1, event{kind: evCredit, a: 2 * int32(e.P*e.V)})
	refold()
	if _, ok = e.fastForwardTarget(1001, -1); ok {
		t.Fatal("fast-forward offered with an event due next cycle")
	}
}

// handcraftedCalendarEngine builds an open-loop engine whose arrival
// calendar is fully under test control: every server's first arrival is
// pinned to `base`, except the overrides. The overrides must not exceed
// base and the calendar keeps one entry per server, so the heap invariant
// and the CheckInvariants audit both hold.
func handcraftedCalendarEngine(t *testing.T, o RunOptions, base int64, overrides map[int32]int64) *engine {
	t.Helper()
	if o.Config == (Config{}) {
		o.Config = DefaultConfig()
	}
	e, err := newEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	e.warmStart = o.WarmupCycles
	e.warmEnd = o.WarmupCycles + o.MeasureCycles
	e.initArrivals(o.Load)
	for i := range e.arrQ {
		e.arrQ[i] = arrival{at: base, server: int32(i)}
	}
	for server, at := range overrides {
		e.arrQ[server] = arrival{at: at, server: server}
	}
	// Full build-heap: correct for any override values.
	for i := len(e.arrQ)/2 - 1; i >= 0; i-- {
		e.arrSiftDown(i)
	}
	return e
}

// fastForwardFixture is the shared shape of the boundary tests: a 3x3
// network under PolSP with CheckInvariants on (so the arrival-calendar
// and activity audits run during the tests themselves).
func fastForwardFixture(t *testing.T, o RunOptions) RunOptions {
	t.Helper()
	h := topo.MustHyperX(3, 3)
	nw := topo.NewNetwork(h, topo.NewFaultSet())
	mech, err := core.New(nw, core.PolarizedRoutes, 4)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewUniform(h.Switches() * 2)
	if err != nil {
		t.Fatal(err)
	}
	o.Net, o.Mechanism, o.Pattern = nw, mech, pat
	o.ServersPerSwitch = 2
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	o.Config = cfg
	return o
}

// TestFastForwardArrivalAtWarmEnd: an arrival due exactly at the
// measurement end must never fire — the run is over at that cycle — and
// one due a cycle earlier must. The fast-forward jump that covers most of
// the run cannot blur that edge.
func TestFastForwardArrivalAtWarmEnd(t *testing.T) {
	const end = 2000
	base := RunOptions{Load: 0.05, WarmupCycles: 0, MeasureCycles: end, Seed: 3}

	o := fastForwardFixture(t, base)
	e := handcraftedCalendarEngine(t, o, end, nil)
	res, err := e.runOpenLoop(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedPackets != 0 {
		t.Errorf("arrival at warmEnd generated %d packets, want 0", res.GeneratedPackets)
	}
	if res.Cycles != end {
		t.Errorf("run lasted %d cycles, want %d", res.Cycles, end)
	}

	o = fastForwardFixture(t, base)
	e = handcraftedCalendarEngine(t, o, end, map[int32]int64{0: end - 1})
	res, err = e.runOpenLoop(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedPackets != 1 {
		t.Errorf("arrival at warmEnd-1 generated %d packets, want exactly 1", res.GeneratedPackets)
	}
}

// TestFastForwardFaultInSkippedStretch: a fault scheduled deep inside an
// otherwise idle stretch must fire at its exact cycle — the jump stops on
// it — and the whole run must stay byte-identical to the full per-cycle
// walk, which cannot fast-forward at all.
func TestFastForwardFaultInSkippedStretch(t *testing.T) {
	h := topo.MustHyperX(3, 3)
	seq := topo.RandomFaultSequence(h, 17)
	base := RunOptions{
		Load: 0.05, WarmupCycles: 0, MeasureCycles: 2500, Seed: 11,
		FaultSchedule: []FaultEvent{{Cycle: 700, Edge: seq[0]}},
	}
	var ref []byte
	for _, noAct := range []bool{false, true} {
		o := fastForwardFixture(t, base)
		o.fullWalk = noAct
		// All traffic arrives at cycle 1500: the fault at 700 sits in the
		// middle of a stretch the activity engine fast-forwards across.
		e := handcraftedCalendarEngine(t, o, 1500, nil)
		res, err := e.runOpenLoop(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.FaultsApplied != 1 {
			t.Fatalf("activity=%v: %d faults applied, want 1", !noAct, res.FaultsApplied)
		}
		if res.GeneratedPackets == 0 {
			t.Fatalf("activity=%v: the post-fault arrivals never generated", !noAct)
		}
		got := res.AppendBinary(nil)
		if ref == nil {
			ref = got
		} else if !bytes.Equal(ref, got) {
			t.Error("fast-forwarding across the fault diverged from the full walk")
		}
	}
}

// TestFastForwardAcrossWarmupBoundary: a jump launched before warmStart is
// clamped to it, and traffic arriving after the boundary counts in the
// window exactly as under the full walk.
func TestFastForwardAcrossWarmupBoundary(t *testing.T) {
	// The microscopic load makes re-sampled second arrivals land far beyond
	// the run, so exactly one arrival per server fires.
	base := RunOptions{Load: 1e-9, WarmupCycles: 500, MeasureCycles: 1500, Seed: 23}
	var ref []byte
	for _, noAct := range []bool{false, true} {
		o := fastForwardFixture(t, base)
		o.fullWalk = noAct
		e := handcraftedCalendarEngine(t, o, 1200, nil)
		res, err := e.runOpenLoop(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.GeneratedPackets != int64(e.S*e.K) {
			t.Fatalf("activity=%v: %d window packets, want %d (all arrivals are in-window)",
				!noAct, res.GeneratedPackets, e.S*e.K)
		}
		got := res.AppendBinary(nil)
		if ref == nil {
			ref = got
		} else if !bytes.Equal(ref, got) {
			t.Error("fast-forwarding across warmStart diverged from the full walk")
		}
	}
}

// TestSpinPoolBarrier drives the phase barrier directly with a full spin
// budget: every phase must run each worker body exactly once and the
// caller must not return before all workers finish.
func TestSpinPoolBarrier(t *testing.T) {
	const extra = 3
	p := newSpinPool(extra, spinParkAfter)
	defer p.close()
	var sum atomic.Int64
	for phase := 0; phase < 500; phase++ {
		var ran [extra + 1]atomic.Int32
		p.run(func(w int) {
			ran[w].Add(1)
			sum.Add(int64(w))
		})
		for w := range ran {
			if got := ran[w].Load(); got != 1 {
				t.Fatalf("phase %d: worker %d ran %d times", phase, w, got)
			}
		}
	}
	if got := sum.Load(); got != 500*(1+2+3) {
		t.Fatalf("spin pool work sum = %d, want %d", got, 500*(1+2+3))
	}
}

// TestSpinPoolParkPath drives the barrier with the minimal spin budget —
// the oversubscribed configuration — and idles between phases so the
// workers actually park, exercising the park/wake token protocol: no
// phase may be lost to a missed wake-up, slow worker bodies must park the
// collecting caller, and close must release workers parked at the time.
func TestSpinPoolParkPath(t *testing.T) {
	const extra = 3
	p := newSpinPool(extra, 1)
	var sum atomic.Int64
	for phase := 0; phase < 50; phase++ {
		var ran [extra + 1]atomic.Int32
		p.run(func(w int) {
			if w != 0 && phase%10 == 0 {
				// Slow workers force the caller down its own park path.
				time.Sleep(time.Millisecond)
			}
			ran[w].Add(1)
			sum.Add(int64(w))
		})
		for w := range ran {
			if got := ran[w].Load(); got != 1 {
				t.Fatalf("phase %d: worker %d ran %d times", phase, w, got)
			}
		}
		if phase%5 == 0 {
			// Idle long past the one-yield spin budget so the workers park
			// before the next release.
			time.Sleep(2 * time.Millisecond)
		}
	}
	if got := sum.Load(); got != 50*(1+2+3) {
		t.Fatalf("park-path work sum = %d, want %d", got, 50*(1+2+3))
	}
	// Let the workers park, then tear down: close must release them.
	time.Sleep(2 * time.Millisecond)
	done := make(chan struct{})
	go func() { p.close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("close did not release parked workers")
	}
}
