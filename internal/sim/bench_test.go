package sim

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// loadedPaperEngine builds a paper-scale 8x8x8 engine and warms it under
// heavy uniform load until the input queues carry a realistic request
// population, so the allocation benchmarks measure the hot steady state.
func loadedPaperEngine(b testing.TB) *engine {
	b.Helper()
	h := topo.MustHyperX(8, 8, 8)
	nw := topo.NewNetwork(h, nil)
	mech, err := core.New(nw, core.PolarizedRoutes, 4)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := traffic.NewUniform(h.Switches() * 8)
	if err != nil {
		b.Fatal(err)
	}
	o := RunOptions{
		Net: nw, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
		Load: 0.9, Seed: 1, Config: DefaultConfig(),
	}
	e, err := newEngine(o)
	if err != nil {
		b.Fatal(err)
	}
	e.warmStart, e.warmEnd = 0, 1<<62
	p := o.Load / float64(e.cfg.PacketPhits)
	nServers := int32(e.S * e.K)
	gen := func() {
		for g := int32(0); g < nServers; g++ {
			if e.r.Float64() < p {
				e.generate(g)
			}
		}
	}
	for e.now = 0; e.now < 600; e.now++ {
		e.stepCycle(gen)
	}
	// Advance the final cycle up to (but not into) the allocation phase, so
	// the benchmarks see the request population allocation actually faces:
	// arrivals drained into the input queues, traffic generated, injections
	// launched.
	for sw := int32(0); sw < int32(e.S); sw++ {
		e.processEventsSwitch(sw)
	}
	e.mergeRetire()
	gen()
	for sw := int32(0); sw < int32(e.S); sw++ {
		e.injectSwitch(sw, &e.ws[0])
	}
	return e
}

// gatherAllRequests reproduces the request-gathering walk of the former
// global allocator: one request per eligible head packet, across every
// switch, into a single flat slice. It prices through the head cache, as
// allocateSwitch does, so both variants of BenchmarkAllocationStep gather
// the same requests at the same cost.
func gatherAllRequests(e *engine, reqs []request, ws *workerScratch) []request {
	reqs = reqs[:0]
	speedup := int8(e.cfg.XbarSpeedup)
	V := e.V
	for sw := int32(0); sw < int32(e.S); sw++ {
		tr := &e.tie[sw]
		gpBase := sw * int32(e.P)
		for p := 0; p < e.P; p++ {
			gport := gpBase + int32(p)
			if e.inInflight[gport] >= speedup {
				continue
			}
			vcBase := gport * int32(V)
			for vc := 0; vc < V; vc++ {
				invc := vcBase + int32(vc)
				if e.inQ.len(invc) == 0 || e.inBusyUntil[invc] > e.now {
					continue
				}
				if req, ok := e.headRequest(sw, gport, invc, vc, tr, ws); ok {
					reqs = append(reqs, req)
				}
			}
		}
	}
	return reqs
}

// BenchmarkAllocationStep compares the engine's per-output bucketed
// arbitration against the former global-sort allocation on a loaded
// paper-scale 8x8x8 network. Both variants gather the same requests; the
// baseline then sorts all of them globally by (cost, tie) and walks the
// sorted list with the former grant checks, while the bucketed arbiter
// sorts and serves each output port's small candidate list locally — the
// change that removed the O(R log R) hot path and the cross-switch data
// dependency. Every pass allocates the same cycle again, so from the
// second pass on every head is priced from the head cache, as a head that
// stays blocked is; BucketedUncached empties the cache before each pass and
// prices every head from Mechanism.Candidates, as a head evaluated for the
// first time is.
func BenchmarkAllocationStep(b *testing.B) {
	for _, uncached := range []bool{false, true} {
		name := "Bucketed"
		if uncached {
			name = "BucketedUncached"
		}
		b.Run(name, func(b *testing.B) {
			e := loadedPaperEngine(b)
			ws := &e.ws[0]
			b.ResetTimer()
			granted := 0
			for i := 0; i < b.N; i++ {
				if uncached {
					e.dropHeads()
				}
				granted = 0
				for sw := 0; sw < e.S; sw++ {
					e.allocateSwitch(int32(sw), ws)
					granted += len(e.granted[sw])
				}
			}
			b.ReportMetric(float64(granted), "grants/cycle")
		})
	}
	b.Run("GlobalSortBaseline", func(b *testing.B) {
		e := loadedPaperEngine(b)
		ws := &e.ws[0]
		SP := e.S * e.P
		var reqs []request
		inUsed := make([]int8, SP)
		outUsed := make([]int8, SP)
		outResv := make([]int16, SP)
		credUsed := make([]int16, SP*e.V)
		speedup := int8(e.cfg.XbarSpeedup)
		b.ResetTimer()
		granted := 0
		for i := 0; i < b.N; i++ {
			reqs = gatherAllRequests(e, reqs, ws)
			sort.Slice(reqs, func(i, j int) bool {
				if reqs[i].cost != reqs[j].cost {
					return reqs[i].cost < reqs[j].cost
				}
				return reqs[i].tie < reqs[j].tie
			})
			for i := range inUsed {
				inUsed[i], outUsed[i], outResv[i] = 0, 0, 0
			}
			for i := range credUsed {
				credUsed[i] = 0
			}
			granted = 0
			for i := range reqs {
				rq := &reqs[i]
				total := int(e.pq[rq.outPort].outTotal) // queued + crossing into the port
				if e.inInflight[rq.inPort]+inUsed[rq.inPort] >= speedup ||
					int8(total-e.outQ.len(rq.outPort))+outUsed[rq.outPort] >= speedup {
					continue
				}
				if total+int(outResv[rq.outPort]) >= e.cfg.OutputBufPkts {
					continue
				}
				if !rq.eject {
					out := rq.outPort*int32(e.V) + int32(rq.vc)
					if e.credits[out]-credUsed[out] <= 0 {
						continue
					}
					credUsed[out]++
				}
				inUsed[rq.inPort]++
				outUsed[rq.outPort]++
				outResv[rq.outPort]++
				granted++
			}
		}
		b.ReportMetric(float64(len(reqs)), "requests/cycle")
		b.ReportMetric(float64(granted), "grants/cycle")
	})
}

// BenchmarkSaturatedPlateau times simulated cycles past saturation, where
// most heads stay blocked from one cycle to the next and are priced from
// the head cache: grid-cold's network (4x4x4, four servers per switch, six
// VCs) at load 1.0 under Minimal on the Regular Permutation to Neighbour
// pattern and under PolSP on Uniform, each warmed for 700 cycles and timed
// over the next 700.
func BenchmarkSaturatedPlateau(b *testing.B) {
	const warm, timed = 700, 700
	h := topo.MustHyperX(4, 4, 4)
	sv := traffic.Servers{H: h, Per: 4}
	for _, tc := range []struct {
		mech, pattern string
		newPat        func() (traffic.Pattern, error)
	}{
		{"Minimal", "RPN", func() (traffic.Pattern, error) { return traffic.NewRegularPermutationToNeighbour(sv) }},
		{"PolSP", "Uniform", func() (traffic.Pattern, error) { return traffic.NewUniform(sv.Count()) }},
	} {
		b.Run(tc.mech+"-"+tc.pattern, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nw := topo.NewNetwork(h, nil)
				pat, err := tc.newPat()
				if err != nil {
					b.Fatal(err)
				}
				o := RunOptions{
					Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(b, tc.mech, nw), Pattern: pat,
					Load: 1.0, MeasureCycles: warm + timed, Seed: 1, Config: DefaultConfig(),
				}
				e, err := newEngine(o)
				if err != nil {
					b.Fatal(err)
				}
				e.warmStart, e.warmEnd = 0, warm+timed
				e.initArrivals(o.Load)
				noOverrun := func() error { return nil }
				if err := e.loop(o, func() bool { return e.now >= warm }, noOverrun); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := e.loop(o, func() bool { return e.now >= warm+timed }, noOverrun); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*timed), "ns/cycle")
		})
	}
}

// BenchmarkEngineConstruction measures newEngine on the paper-scale
// 8x8x8: the cost the arena/slab layout optimizes (a handful of slab
// allocations instead of one make per queue). ReportAllocs keeps the
// allocation count honest — regressions here show up as extra allocs long
// before they show up as wall-clock.
func BenchmarkEngineConstruction(b *testing.B) {
	h := topo.MustHyperX(8, 8, 8)
	nw := topo.NewNetwork(h, nil)
	mech, err := core.New(nw, core.PolarizedRoutes, 4)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := traffic.NewUniform(h.Switches() * 8)
	if err != nil {
		b.Fatal(err)
	}
	o := RunOptions{
		Net: nw, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
		Load: 0.5, Seed: 1, Config: DefaultConfig(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	var mem MemStats
	for i := 0; i < b.N; i++ {
		e, err := newEngine(o)
		if err != nil {
			b.Fatal(err)
		}
		mem = e.memStats()
	}
	b.ReportMetric(mem.BytesPerSwitch, "bytes/switch")
}

// BenchmarkSteadyStateStepAllocs steps a loaded paper-scale engine and
// reports allocations per cycle: the staging arenas exist so the steady
// state appends into preallocated slab regions. The floor is the three
// phase-dispatch closures per cycle (~48 B/op); growth beyond that means
// a staging slice spilled its cap — a worst-case proof no longer holds.
func BenchmarkSteadyStateStepAllocs(b *testing.B) {
	e := loadedPaperEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.now++
		e.stepCycle(nil)
	}
}

// BenchmarkSnapshotCodec measures the snapshotState byte codec alone — no
// capture, no trailer, no gzip — on one real mid-run snapshot of the
// paper-scale 8x8x8 under PolSP at load 0.7 (a few MB: every queue, the
// packet pool and the calendar wheel populated), and, as Capture, the
// part of a checkpoint that stays on the cycle loop: capturing the same
// state from an engine restored to it. Seal is what the ship goroutine
// does with a capture (encode, trailer, gzip) and Inflate the gzip layer
// a resume undoes first. MB/s comes from SetBytes, always over the codec
// bytes.
func BenchmarkSnapshotCodec(b *testing.B) {
	h := topo.MustHyperX(8, 8, 8)
	nw := topo.NewNetwork(h, nil)
	mech, err := core.New(nw, core.PolarizedRoutes, 6)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := traffic.NewUniform(h.Switches() * 8)
	if err != nil {
		b.Fatal(err)
	}
	var snap []byte
	o := RunOptions{
		Net: nw, ServersPerSwitch: 8, Mechanism: mech, Pattern: pat,
		Load: 0.7, WarmupCycles: 300, MeasureCycles: 300, Seed: 1, Config: DefaultConfig(),
	}
	o.Checkpoint = &CheckpointOptions{EveryCycles: 500, Sink: func(s []byte) error {
		snap = s
		return nil
	}}
	if _, err = Run(o); err != nil {
		b.Fatal(err)
	}
	body := snapshotBody(b, snap)
	st, err := decodeSnapshotState(body)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Capture", func(b *testing.B) {
		e, err := newEngine(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.restoreSnapshot(snap, o); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.captureSnapshot(o)
		}
	})
	b.Run("Encode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if enc := appendSnapshotState(nil, st); len(enc) != len(body) {
				b.Fatalf("encoded %d bytes, the snapshot body has %d", len(enc), len(body))
			}
		}
	})
	b.Run("Seal", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			sealSnapshot(st)
		}
	})
	b.Run("Inflate", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := inflateSnapshot(snap, maxSnapshotBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeSnapshotState(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
