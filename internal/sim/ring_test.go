package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/topo"
)

// TestRingSetMatchesSliceFIFO drives a ring set and a plain slice FIFO per
// ring with the same random push/pop sequence and compares len, full, peek,
// pop and at(i, j) after each step. Every ring starts with its head three
// slots before the end of its slab region, so the walk wraps at once at any
// capacity. Only one ring is touched per step and all of them are compared,
// so a write that strays into a neighbour's region or header shows up at
// once. Capacities: 1 and 2 (wrap on every operation), the paper's 8, and
// the largest a header admits.
func TestRingSetMatchesSliceFIFO(t *testing.T) {
	type entry struct {
		pkt int32
		vc  int8
	}
	for _, tagged := range []bool{false, true} {
		for _, capacity := range []int{1, 2, 8, maxRingCap} {
			t.Run(fmt.Sprintf("cap=%d/tagged=%v", capacity, tagged), func(t *testing.T) {
				const rings = 3
				rs := newRingSet(rings, capacity, tagged)
				push := func(i int32, en entry) {
					if tagged {
						rs.pushVC(i, en.pkt, en.vc)
					} else {
						rs.push(i, en.pkt)
					}
				}
				pop := func(i int32) (en entry) {
					if tagged {
						en.pkt, en.vc = rs.popVC(i)
					} else {
						en.pkt = rs.pop(i)
					}
					return en
				}
				for i := int32(0); i < rings; i++ {
					for k := 0; k < capacity-3; k++ {
						push(i, entry{})
						pop(i)
					}
				}
				var model [rings][]entry
				check := func(step int) {
					for i := int32(0); i < rings; i++ {
						m := model[i]
						if rs.len(i) != len(m) || rs.full(i) != (len(m) == capacity) {
							t.Fatalf("step %d ring %d: len %d full %v, model holds %d of %d",
								step, i, rs.len(i), rs.full(i), len(m), capacity)
						}
						if len(m) > 0 && rs.peek(i) != m[0].pkt {
							t.Fatalf("step %d ring %d: peek %d, model %d", step, i, rs.peek(i), m[0].pkt)
						}
						for j := range m {
							got := entry{pkt: rs.at(i, j)}
							if tagged {
								got.vc = rs.tag[rs.slot(i, j)]
							}
							if got != m[j] {
								t.Fatalf("step %d ring %d: at(%d) = %+v, model %+v", step, i, j, got, m[j])
							}
						}
					}
				}
				r := rng.New(uint64(capacity))
				for step := 0; step < 20000; step++ {
					i := int32(r.Intn(rings))
					if len(model[i]) < capacity && (len(model[i]) == 0 || r.Intn(8) < 5) {
						en := entry{pkt: int32(step)}
						if tagged {
							en.vc = int8(step % 100)
						}
						push(i, en)
						model[i] = append(model[i], en)
					} else {
						if got := pop(i); got != model[i][0] {
							t.Fatalf("step %d ring %d: pop %+v, model %+v", step, i, got, model[i][0])
						}
						model[i] = model[i][1:]
					}
					if capacity <= 8 || step%64 == 0 {
						check(step)
					}
				}
				rs.reset(1)
				model[1] = nil
				check(20000)
			})
		}
	}
}

// TestRingSetFillsAndWraps pins the two extremes the random walk only
// visits by chance: a ring filled to the largest capacity, and a full ring
// whose head sits on the last slot, so both the push and the pop wrap.
func TestRingSetFillsAndWraps(t *testing.T) {
	rs := newRingSet(2, maxRingCap, false)
	for v := int32(0); v < maxRingCap; v++ {
		rs.push(1, v)
	}
	if !rs.full(1) || rs.len(1) != maxRingCap || rs.len(0) != 0 {
		t.Fatalf("after %d pushes: len %d full %v, neighbour len %d", maxRingCap, rs.len(1), rs.full(1), rs.len(0))
	}
	for v := int32(0); v < maxRingCap-1; v++ {
		if got := rs.pop(1); got != v {
			t.Fatalf("pop %d, want %d", got, v)
		}
	}
	// head is on the last slot; refill across the wrap.
	for v := int32(0); v < maxRingCap-1; v++ {
		rs.push(1, 1_000_000+v)
	}
	if got := rs.pop(1); got != maxRingCap-1 {
		t.Fatalf("pop at the wrap %d, want %d", got, maxRingCap-1)
	}
	if got, want := rs.at(1, maxRingCap-2), int32(1_000_000+maxRingCap-2); got != want {
		t.Fatalf("tail after the wrap %d, want %d", got, want)
	}
}

// TestRingPanicsOnOverflow: pushing into a full ring is a flow-control
// accounting bug and says so, for both entry kinds, leaving the neighbour
// untouched.
func TestRingPanicsOnOverflow(t *testing.T) {
	overflow := func(push func(rs *ringSet)) {
		rs := newRingSet(2, 1, true)
		rs.pushVC(0, 1, 1)
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "flow-control accounting bug") {
				t.Errorf("overflow panicked with %q, want the flow-control message", msg)
			}
			if rs.len(0) != 1 || rs.len(1) != 0 || rs.peek(0) != 1 {
				t.Errorf("overflow changed the rings: lens %d,%d head %d", rs.len(0), rs.len(1), rs.peek(0))
			}
		}()
		push(&rs)
	}
	overflow(func(rs *ringSet) { rs.push(0, 2) })
	overflow(func(rs *ringSet) { rs.pushVC(0, 2, 2) })
}

// TestOversizedQueuesRefusedBeforeAllocating: a capacity the 16-bit ring
// header cannot count is an error from newEngine, not a wrapped counter —
// and it is reported before anything network-sized is allocated (the input
// slab alone would be 168 MB at the refused size on this 4x4). So is an
// event horizon past the 64 slots of a switch's calendar word.
func TestOversizedQueuesRefusedBeforeAllocating(t *testing.T) {
	h := topo.MustHyperX(4, 4)
	nw := topo.NewNetwork(h, nil)
	base := RunOptions{
		Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, "PolSP", nw),
		Pattern: uniformOn(t, h, 4), Load: 0.5, MeasureCycles: 10, Seed: 1,
		Config: DefaultConfig(),
	}
	cases := []struct {
		name, want string
		set        func(o *RunOptions)
	}{
		{"input", "InputBufPkts", func(o *RunOptions) { o.Config.InputBufPkts = maxRingCap + 1 }},
		{"output", "OutputBufPkts", func(o *RunOptions) { o.Config.OutputBufPkts = maxRingCap + 1 }},
		{"injection", "InjQueuePkts", func(o *RunOptions) { o.Config.InjQueuePkts = maxRingCap + 1 }},
		{"burst", "BurstPackets", func(o *RunOptions) { o.BurstPackets = maxRingCap + 1 }},
		// 40 + 2 + 20 (crossbar transfer at speedup 2) + 1 + 2 = 65 slots.
		{"horizon", "event horizon of 65 cycles", func(o *RunOptions) {
			o.Config.PacketPhits, o.Config.LinkLatency = 40, 2
		}},
	}
	for _, tc := range cases {
		o := base
		tc.set(&o)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := newEngine(o)
		runtime.ReadMemStats(&after)
		if err == nil || e != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: newEngine = (engine %v, %v), want an error naming %s", tc.name, e != nil, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: newEngine allocated %d bytes before refusing", tc.name, grew)
		}
		if _, err := Run(o); err == nil {
			t.Errorf("%s: Run accepted the oversized queue", tc.name)
		}
	}
	// The largest admitted capacity still builds.
	o := base
	o.BurstPackets = maxRingCap
	e, err := newEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	if e.injQ.cap != maxRingCap || e.injQ.full(0) {
		t.Fatalf("injection queues of capacity %d, want %d and empty", e.injQ.cap, maxRingCap)
	}
}
