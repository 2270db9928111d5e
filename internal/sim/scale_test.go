package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// cubeOptions is the side^3 HyperX with eight servers per switch and four
// VCs that the memory budgets and the scale smoke test share: PolSP with
// its tables, or the table-free DOR ladder, which keeps mechanism
// construction out of a 4096-switch test (the engine footprint is
// mechanism-independent at equal VC count).
func cubeOptions(t *testing.T, side int, polsp bool) RunOptions {
	t.Helper()
	h := topo.MustHyperX(side, side, side)
	nw := topo.NewNetwork(h, nil)
	var mech routing.Mechanism
	if polsp {
		m, err := core.New(nw, core.PolarizedRoutes, 4)
		if err != nil {
			t.Fatal(err)
		}
		mech = m
	} else {
		alg, err := routing.NewDOR(nw)
		if err != nil {
			t.Fatal(err)
		}
		if mech, err = routing.NewLadder(alg, 4, 1, "DOR"); err != nil {
			t.Fatal(err)
		}
	}
	pat, err := traffic.NewUniform(h.Switches() * 8)
	if err != nil {
		t.Fatal(err)
	}
	return RunOptions{
		Net: nw, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
		Load: 0.01, WarmupCycles: 100, MeasureCycles: 400, Seed: 7,
	}
}

// TestEngineMemoryBudgets is the deterministic memory gate: the engine's
// arena accounting (MeasureEngineMemory, construction only) against the
// figure pinned per size, plus 10 % — room for a few words per port, none
// for anything that changes the scaling class (a per-pair table, an O(S^2)
// matrix) or undoes the ring sets (a 40-byte header per input VC is +7 600
// at 16^3). The ladder of the retired -exp bench had a 32^3 row as well;
// it is dropped because 1.1 GB of arenas is not a tier-1 test, and both
// regressions it guarded — words per port, an O(S^2) table — already trip
// the 16^3 budget (R grows 21 -> 45 from 8^3 to 16^3, S 512 -> 4096).
// Every engine carries the activity bookkeeping, so the figures include
// its per-switch words: the calendar word (evMask, read for the event
// component of next-work), the retry component, the booked nextWork and
// the timing wheel's bits. They
// include the head cache too: two packed entries, an offset and a count
// per input VC and one top per switch (+1 280 at 8^3, +2 336 at 16^3).
func TestEngineMemoryBudgets(t *testing.T) {
	for _, tc := range []struct {
		side           int
		polsp          bool
		pinned, budget float64 // bytes per switch
	}{
		{side: 8, polsp: true, pinned: 12_001, budget: 13_201},
		{side: 16, polsp: false, pinned: 20_975, budget: 23_072},
	} {
		if tc.side > 8 && testing.Short() {
			continue // 77 MB of arenas
		}
		mem, err := MeasureEngineMemory(cubeOptions(t, tc.side, tc.polsp))
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.side * tc.side * tc.side; mem.Switches != want {
			t.Fatalf("%d^3: mem accounting saw %d switches, want %d", tc.side, mem.Switches, want)
		}
		t.Logf("%d^3: %.0f bytes/switch (pinned %.0f, budget %.0f), constructed in %d ms",
			tc.side, mem.BytesPerSwitch, tc.pinned, tc.budget, mem.ConstructNanos/1e6)
		if mem.BytesPerSwitch > tc.budget {
			t.Errorf("%d^3: arena footprint %.0f bytes/switch exceeds the %.0f budget (pinned %.0f + 10 %%) — scaling regression",
				tc.side, mem.BytesPerSwitch, tc.budget, tc.pinned)
		}
	}
}

// TestLargeTopologySmoke drives a short low-load open-loop window through
// the 4096-switch 16x16x16 cube. It exists to keep the scale path honest:
// a real (if brief) run at that size must deliver traffic. The full
// version runs in the CI activity-engine job; -short skips it.
func TestLargeTopologySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-switch smoke test skipped in -short mode")
	}
	res, err := Run(cubeOptions(t, 16, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPackets == 0 {
		t.Error("large-topology window delivered no packets")
	}
}
