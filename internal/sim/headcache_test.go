package sim

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// saturatedOptions fills o for a 4x4 network, four servers per switch,
// under the named mechanism and the traffic pat builds, at load 1.0 and
// with CheckInvariants on, so that every 64th cycle audits the head cache
// against fresh Candidates.
func saturatedOptions(t *testing.T, name string, pat func(h *topo.HyperX) traffic.Pattern, o RunOptions) RunOptions {
	t.Helper()
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, topo.NewFaultSet())
	o.Net, o.Mechanism, o.Pattern = nw, buildMech(t, name, nw), pat(h)
	o.ServersPerSwitch, o.Load = 4, 1.0
	if o.Config == (Config{}) {
		o.Config = DefaultConfig()
	}
	o.Config.CheckInvariants = true
	return o
}

// saturatedEngine builds the engine of saturatedOptions, ready for loop.
func saturatedEngine(t *testing.T, name string, pat func(h *topo.HyperX) traffic.Pattern, o RunOptions) (*engine, RunOptions) {
	t.Helper()
	o = saturatedOptions(t, name, pat, o)
	e, err := newEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	e.warmStart, e.warmEnd = o.WarmupCycles, o.WarmupCycles+o.MeasureCycles
	e.initArrivals(o.Load)
	return e, o
}

func uniform4(h *topo.HyperX) traffic.Pattern {
	p, err := traffic.NewUniform(h.Switches() * 4)
	if err != nil {
		panic(err)
	}
	return p
}

func neighbour4(h *topo.HyperX) traffic.Pattern {
	p, err := traffic.NewRegularPermutationToNeighbour(traffic.Servers{H: h, Per: 4})
	if err != nil {
		panic(err)
	}
	return p
}

// runTo steps e until cycle end, stopping at the inter-cycle point before
// it.
func runTo(t *testing.T, e *engine, o RunOptions, end int64, overrun func() error) {
	t.Helper()
	if overrun == nil {
		overrun = func() error { return nil }
	}
	if err := e.loop(o, func() bool { return e.now >= end }, overrun); err != nil {
		t.Fatal(err)
	}
}

// headStates counts the input VCs whose head is marked seen and those
// with a cached list.
func headStates(e *engine) (seen, cached int) {
	for _, n := range e.hcLen {
		switch {
		case n == hcSeen:
			seen++
		case n >= hcCached:
			cached++
		}
	}
	return seen, cached
}

// TestHeadRequestMatchesBestRequest prices every queued head of a
// saturated network three times from the same tie-break state: unseen,
// seen and cached. Each time the cached allocator's request and the
// reference's must be the same request after the same number of draws,
// and the head's state must step unseen -> seen -> cached (ejecting heads
// bypass the cache and stay unseen). Two regimes: the permutation to a
// neighbour, whose heads route, and uniform traffic, whose servers each
// receive their full rate, so heads at their destination wait on a full
// server port.
func TestHeadRequestMatchesBestRequest(t *testing.T) {
	checked, cachedLists, ejecting := 0, 0, 0
	for _, pat := range []func(h *topo.HyperX) traffic.Pattern{neighbour4, uniform4} {
		e, o := saturatedEngine(t, "PolSP", pat, RunOptions{MeasureCycles: 1000, Seed: 3})
		runTo(t, e, o, 400, nil)
		e.dropHeads()
		ws := &e.ws[0]
		V := int32(e.V)
		for invc := int32(0); invc < int32(len(e.hcLen)); invc++ {
			if e.inQ.len(invc) == 0 {
				continue
			}
			gport := invc / V
			sw := gport / int32(e.P)
			ejects := e.pool[e.inQ.peek(invc)].st.Dst == sw
			for round, wantState := range []uint8{hcSeen, hcCached, hcCached} {
				refTie, gotTie := e.tie[sw], e.tie[sw]
				want, wantOK := e.bestRequest(sw, gport, invc, int(invc%V), &refTie, ws)
				got, gotOK := e.headRequest(sw, gport, invc, int(invc%V), &gotTie, ws)
				if got != want || gotOK != wantOK || gotTie != refTie {
					t.Fatalf("input VC %d, evaluation %d: headRequest %+v (%v), bestRequest %+v (%v), tie streams equal %v",
						invc, round+1, got, gotOK, want, wantOK, gotTie == refTie)
				}
				state := e.hcLen[invc]
				switch {
				case ejects && state != hcUnseen:
					t.Fatalf("ejecting head of input VC %d left state %d", invc, state)
				case !ejects && wantState == hcSeen && state != hcSeen:
					t.Fatalf("input VC %d after its first evaluation: state %d, want seen", invc, state)
				case !ejects && wantState == hcCached && state < hcCached:
					t.Fatalf("input VC %d after evaluation %d: state %d, want a cached list", invc, round+1, state)
				}
			}
			checked++
			if ejects {
				ejecting++
			}
			if e.hcLen[invc] >= hcCached {
				cachedLists++
			}
		}
		e.verifyPorts()
	}
	if checked < 50 || cachedLists < 20 || ejecting < 1 {
		t.Fatalf("priced %d heads, %d of them ejecting, and cached %d lists: the saturated networks no longer exercise the cache and its bypass",
			checked, ejecting, cachedLists)
	}
}

// TestHeadCacheResetsKeepResults shrinks one engine's arena regions to a
// few entries, so that on a saturated Minimal run under the Regular
// Permutation to Neighbour pattern the regions overflow and reset the
// switch's cache over and over, and holds its Result bytes to the full-walk
// oracle's. A reset is seen as a head, still queued, that was cached at one
// inter-cycle point and is not at the next. The oracle, on the same blocked
// heads, must never mark one: it is the recomputing reference.
func TestHeadCacheResetsKeepResults(t *testing.T) {
	o := RunOptions{WarmupCycles: 300, MeasureCycles: 900, Seed: 5}
	ref := o
	ref.fullWalk = true
	oracle, ref := saturatedEngine(t, "Minimal", neighbour4, ref)
	marked := 0
	runTo(t, oracle, ref, oracle.warmEnd, func() error {
		if slices.ContainsFunc(oracle.hcLen, func(n uint8) bool { return n != hcUnseen }) {
			marked++
		}
		return nil
	})
	if marked > 0 {
		t.Errorf("the full walk left head-cache state on %d cycles", marked)
	}
	res, _ := oracle.result(ref)
	want := res.AppendBinary(nil)

	e, o := saturatedEngine(t, "Minimal", neighbour4, o)
	e.hcCap = 6
	wasCached := make([]int32, len(e.hcLen)) // head packet id + 1 while cached
	resets := 0
	overrun := func() error {
		for invc, n := range e.hcLen {
			if e.inQ.len(int32(invc)) == 0 {
				wasCached[invc] = 0
				continue
			}
			head := e.inQ.peek(int32(invc)) + 1
			if n < hcCached && wasCached[invc] == head {
				resets++
			}
			wasCached[invc] = 0
			if n >= hcCached {
				wasCached[invc] = head
			}
		}
		return nil
	}
	runTo(t, e, o, e.warmEnd, overrun)
	res, _ = e.result(o)
	if got := res.AppendBinary(nil); !bytes.Equal(got, want) {
		t.Errorf("Result with %d-entry regions differs from the full walk's", e.hcCap)
	}
	if resets < 100 {
		t.Errorf("only %d cached heads lost their list to a region reset: the arena no longer overflows", resets)
	}
}

// TestHeadCacheEmptyAfterRestoreAndRebuild: a restore and a table rebuild
// after a fault each leave no head state at all, whatever the cache held.
func TestHeadCacheEmptyAfterRestoreAndRebuild(t *testing.T) {
	seq := topo.RandomFaultSequence(topo.MustHyperX(4, 4), 7)
	midRun := func() (*engine, RunOptions) {
		e, o := saturatedEngine(t, "PolSP", uniform4, RunOptions{
			MeasureCycles: 1000, Seed: 3,
			FaultSchedule: []FaultEvent{{Cycle: 400, Edge: seq[0]}},
		})
		runTo(t, e, o, 400, nil)
		if _, cached := headStates(e); cached == 0 {
			t.Fatal("no cached head at cycle 400: the run no longer fills the cache")
		}
		return e, o
	}
	empty := func(what string, e *engine) {
		if seen, cached := headStates(e); seen+cached != 0 || e.hcTop[0] != 0 {
			t.Errorf("after %s: %d seen and %d cached heads, switch 0's top %d", what, seen, cached, e.hcTop[0])
		}
	}

	e, o := midRun()
	if err := e.applySnapshot(e.captureSnapshot(o), o); err != nil {
		t.Fatal(err)
	}
	empty("applySnapshot", e)

	e, _ = midRun()
	if err := e.applyDueFaults(); err != nil || e.nextFault != 1 {
		t.Fatalf("applyDueFaults: %v, %d faults applied", err, e.nextFault)
	}
	empty("applyDueFaults", e)
	e.verifyPorts()
}

// TestHeadCacheUnpackableListsStayUncached: a candidate whose local port or
// penalty cost does not fit a packed entry leaves its head's whole list
// uncached, priced from Candidates on every evaluation. With a penalty
// weight that puts every deroute and escape candidate past int16, a
// saturated SurePath run still matches the full walk byte for byte.
func TestHeadCacheUnpackableListsStayUncached(t *testing.T) {
	for _, tc := range []struct {
		port, vc int
		pcost    int64
		ok       bool
	}{
		{255, 127, 32767, true},
		{0, 0, -32768, true},
		{256, 0, 0, false},
		{0, 256, 0, false},
		{3, 1, 32768, false},
		{3, 1, -32769, false},
	} {
		if h, ok := hcPack(tc.port, tc.vc, tc.pcost); ok != tc.ok ||
			ok && (int(h>>24) != tc.port || int(h>>16&0xff) != tc.vc || int64(int16(h)) != tc.pcost) {
			t.Errorf("hcPack(%d, %d, %d) = %#x, %v", tc.port, tc.vc, tc.pcost, h, ok)
		}
	}

	e := ledgerEngine(t)
	invc := int32(4*e.P+1)*int32(e.V) + 1
	for _, cands := range [][]routing.Candidate{
		{{Port: 1, VC: 0}, {Port: 256, VC: 1}},
		{{Port: 1, VC: 0}, {Port: 2, VC: 1, Penalty: 1 << 20}},
	} {
		e.hcLen[invc] = hcSeen
		e.fillHead(4, invc, cands)
		if e.hcLen[invc] != hcSeen || e.hcTop[4] != 0 {
			t.Errorf("fillHead of %+v: state %d, top %d; want the head left seen and no entry handed out",
				cands, e.hcLen[invc], e.hcTop[4])
		}
	}
	e.fillHead(4, invc, []routing.Candidate{{Port: 1, VC: 0}, {Port: 2, VC: 1, Penalty: 64}})
	if e.hcLen[invc] != hcCached+2 || e.hcTop[4] != 2 {
		t.Errorf("fillHead of a list that fits: state %d, top %d; want 2 entries cached", e.hcLen[invc], e.hcTop[4])
	}

	cfg := DefaultConfig()
	cfg.PenaltyWeight = 10_000 // 64 phits cost 40 000
	o := RunOptions{WarmupCycles: 200, MeasureCycles: 600, Seed: 11, Config: cfg}
	ref := saturatedOptions(t, "OmniSP", uniform4, o)
	ref.fullWalk = true
	if got, want := runBytes(t, saturatedOptions(t, "OmniSP", uniform4, o)), runBytes(t, ref); !bytes.Equal(got, want) {
		t.Error("with unpackable penalty costs the cached engine's Result differs from the full walk's")
	}
}
