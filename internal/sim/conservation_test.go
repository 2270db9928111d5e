package sim

import (
	"fmt"
	"testing"

	"repro/internal/topo"
)

// packetHolders counts, for every pool entry, the places that hold it
// between cycles: the free list, a slot of an input VC, output buffer or
// injection queue, and a calendar event that carries a packet (every kind
// but evCredit). The per-cycle staging (outboxes, retirement lists) is
// empty at that point, so it holds nothing.
func packetHolders(e *engine) []int {
	held := make([]int, len(e.pool))
	for _, id := range e.free {
		held[id]++
	}
	for _, rs := range []*ringSet{&e.inQ, &e.outQ, &e.injQ} {
		for i := range rs.hdr {
			for j := 0; j < rs.len(int32(i)); j++ {
				held[rs.at(int32(i), j)]++
			}
		}
	}
	for _, slot := range e.events {
		for _, ev := range slot {
			if ev.kind != evCredit {
				held[ev.pkt]++
			}
		}
	}
	return held
}

// TestPacketConservationEveryCycle is packet conservation as a property of
// every inter-cycle point, not only of a finished run: after each cycle of
// an engine ticked by hand, every pool entry is held exactly once — free,
// queued in one ring slot, or carried by one calendar event — so nothing
// is duplicated or leaked, the packets lost with a failed link included.
// In burst mode the packets also add up: delivered + lost + inFlight() is
// the preload on every cycle, with the deliveries counted by the switches'
// window records (the window covers the whole run), not by the free list
// that inFlight() reads — or the sum would hold by construction. The cases cover the escape-subnetwork and
// ladder mechanisms, open loop and burst, with two links failing mid-run
// under load.
func TestPacketConservationEveryCycle(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	seq := topo.RandomFaultSequence(h, 5)
	const cycles, servers, burst = 700, 4, 8
	for _, mech := range []string{"PolSP", "OmniSP", "Minimal", "Valiant"} {
		for _, burstMode := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/burst=%v", mech, burstMode), func(t *testing.T) {
				nw := topo.NewNetwork(h, topo.NewFaultSet())
				o := RunOptions{
					Net: nw, ServersPerSwitch: servers, Mechanism: buildMech(t, mech, nw),
					Pattern: uniformOn(t, h, servers), Load: 0.9, MeasureCycles: cycles,
					Seed: 11, Config: DefaultConfig(),
					FaultSchedule: []FaultEvent{{Cycle: 60, Edge: seq[0]}, {Cycle: 250, Edge: seq[1]}},
				}
				if burstMode {
					o.BurstPackets = burst
				}
				e, err := newEngine(o)
				if err != nil {
					t.Fatal(err)
				}
				e.warmStart, e.warmEnd = 0, cycles
				var preload int64
				if burstMode {
					for g := int32(0); g < int32(e.S*e.K); g++ {
						for i := 0; i < burst; i++ {
							if !e.generate(g) {
								t.Fatalf("server %d refused burst packet %d", g, i)
							}
							preload++
						}
					}
				} else {
					e.initArrivals(o.Load)
				}
				for ; e.now < cycles; e.now++ {
					if err := e.applyDueFaults(); err != nil {
						t.Fatal(err)
					}
					e.stepCycle(e.generateArrivals)
					for id, n := range packetHolders(e) {
						if n != 1 {
							t.Fatalf("cycle %d: packet %d is held %d times", e.now, id, n)
						}
					}
					delivered := e.foldWindow().deliveredPkts
					if got := delivered + e.lostPkts + e.inFlight(); burstMode && got != preload {
						t.Fatalf("cycle %d: delivered %d + lost %d + in flight %d = %d, the burst preloaded %d",
							e.now, delivered, e.lostPkts, e.inFlight(), got, preload)
					}
				}
				if delivered := e.foldWindow().deliveredPkts; e.lostPkts == 0 || delivered == 0 {
					t.Fatalf("delivered %d, lost %d: the case no longer loses packets to the faults",
						delivered, e.lostPkts)
				}
			})
		}
	}
}
