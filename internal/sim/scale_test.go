package sim

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// maxBytesPerSwitch16 is the allocation budget of the 16x16x16 smoke
// test: the engine's arena accounting puts the footprint at 18 907
// bytes/switch at this radix (R=45, K=8, V=4), and the budget is that
// plus 10 % — room for a few words per port, none for anything that
// changes the scaling class (a per-pair table, an O(S^2) matrix) or
// undoes the ring sets (a 40-byte header per input VC is +7 600).
const maxBytesPerSwitch16 = 20_800

// TestLargeTopologySmoke constructs the 4096-switch 16x16x16 cube under a
// strict per-switch allocation budget and drives a short low-load
// open-loop window through it. It exists to keep the scale path honest:
// construction must stay slab-backed and linear, and a real (if brief)
// run must deliver traffic. The table-free DOR ladder keeps mechanism
// construction out of the engine measurement (the engine footprint is
// mechanism-independent at equal VC count). The full version runs in the
// CI activity-engine job; -short skips it.
func TestLargeTopologySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-switch smoke test skipped in -short mode")
	}
	h := topo.MustHyperX(16, 16, 16)
	nw := topo.NewNetwork(h, nil)
	alg, err := routing.NewDOR(nw)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := routing.NewLadder(alg, 4, 1, "DOR")
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewUniform(h.Switches() * 8)
	if err != nil {
		t.Fatal(err)
	}
	var mem MemStats
	res, err := Run(RunOptions{
		Net: nw, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
		Load: 0.01, WarmupCycles: 100, MeasureCycles: 400, Seed: 7,
		MemStats: &mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mem.Switches != h.Switches() {
		t.Fatalf("mem accounting saw %d switches, want %d", mem.Switches, h.Switches())
	}
	if mem.BytesPerSwitch > maxBytesPerSwitch16 {
		t.Errorf("arena footprint %.0f bytes/switch exceeds the %d budget — scaling regression",
			mem.BytesPerSwitch, maxBytesPerSwitch16)
	}
	if mem.PeakStagingBytes <= 0 || mem.PeakStagingBytes > mem.StagingCapBytes {
		t.Errorf("peak staging %d bytes outside (0, cap %d] — high-water sampling broken",
			mem.PeakStagingBytes, mem.StagingCapBytes)
	}
	if res.DeliveredPackets == 0 {
		t.Error("large-topology window delivered no packets")
	}
}
