package main

import (
	"encoding/base64"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
)

// timeEach calls f n times and returns each call's duration in the unit
// given (time.Millisecond, time.Microsecond, ...).
func timeEach(n int, unit time.Duration, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		f()
		out[i] = float64(time.Since(start)) / float64(unit)
	}
	return out
}

// probeStates is how many seed-derived (cur, dst) states a Candidates
// probe walks; one sample is the mean over one walk.
const probeStates = 4096

// probes fills the rows measured by calling a layer's exported functions
// in a loop, outside any workload. They read the same in every workload's
// traced run. A probe that cannot run leaves its rows at 0.
func probes(e *env, m map[string]float64) {
	sc := e.sc
	n := sc.probeSamples
	few := max(3, n/200) // builds that take tens of milliseconds each
	h := topo.MustHyperX(sc.dims...)
	nw := topo.NewNetwork(h, topo.NewFaultSet())

	m["topo.build_ms"] = median(timeEach(4*few, time.Millisecond, func() {
		topo.NewNetwork(topo.MustHyperX(sc.dims...), topo.NewFaultSet())
	}))
	faulted := topo.NewNetwork(h, topo.NewFaultSet(topo.RandomFaultSequence(h, e.seed)[0]))
	m["topo.graph_ms"] = median(timeEach(4*few, time.Millisecond, func() { faulted.Graph() }))

	// Candidates at seed-derived first-hop states.
	state := e.seed
	pairs := make([][2]int32, probeStates)
	for i := range pairs {
		src := int32(rng.SplitMix64(&state) % uint64(h.Switches()))
		dst := int32(rng.SplitMix64(&state) % uint64(h.Switches()-1))
		if dst >= src {
			dst++
		}
		pairs[i] = [2]int32{src, dst}
	}
	candidates := func(mech routing.Mechanism) float64 {
		var scr routing.Scratch
		var buf []routing.Candidate
		states := make([]routing.PacketState, len(pairs))
		for i, p := range pairs {
			mech.Init(&states[i], p[0], p[1], nil) // none of the probed mechanisms draws at Init
		}
		return median(timeEach(max(5, n/50), time.Nanosecond, func() {
			for i, p := range pairs {
				buf = mech.Candidates(p[0], &states[i], 0, &scr, buf[:0])
			}
		})) / probeStates
	}
	m["routing.polarized_build_ms"] = median(timeEach(few, time.Millisecond, func() { routing.NewPolarized(nw) }))
	if mech, err := experiments.BuildMechanism("Polarized", nw, sc.vcs, 0); err == nil {
		m["routing.candidates_ns.Polarized"] = candidates(mech)
	}
	if mech, err := routing.NewOmniWAR(nw); err == nil {
		m["routing.candidates_ns.OmniWAR"] = candidates(mech)
	}
	m["escape.build_ms"] = median(timeEach(few, time.Millisecond, func() { escape.Build(nw, 0) }))
	if sub, err := escape.Build(nw, 0); err == nil {
		var buf []routing.PortCandidate
		m["escape.candidates_ns"] = median(timeEach(max(5, n/50), time.Nanosecond, func() {
			for _, p := range pairs {
				buf = sub.Candidates(p[0], p[1], escape.PhaseUp, buf[:0])
			}
		})) / probeStates
	}
	m["core.build_ms.PolSP"] = median(timeEach(few, time.Millisecond, func() { core.New(nw, core.PolarizedRoutes, sc.vcs) }))
	m["core.build_ms.OmniSP"] = median(timeEach(few, time.Millisecond, func() { core.New(nw, core.OmniRoutes, sc.vcs) }))

	// sim: construction, the result codec and one real snapshot.
	b, err := newBigNet(sc)
	if err != nil {
		return
	}
	pol, err := core.New(b.nw, core.PolarizedRoutes, sc.vcs)
	if err != nil {
		return
	}
	p := point{name: "probe", mech: pol, nw: b.nw, load: 0.7, budget: experiments.Budget{Warmup: 1, Measure: sc.ckptGap}}
	var construct []float64
	for i := 0; i < few; i++ {
		if ms, err := sim.MeasureEngineMemory(b.options(e, p)); err == nil {
			construct = append(construct, float64(ms.ConstructNanos)/1e6)
			m["sim.bytes_per_switch"] = ms.BytesPerSwitch
		}
	}
	m["sim.construct_ms"] = median(construct)
	var snapshot []byte
	o := b.options(e, p)
	o.Checkpoint = &sim.CheckpointOptions{EveryCycles: sc.ckptGap, Sink: func(snap []byte) error { snapshot = snap; return nil }}
	res, err := sim.Run(o)
	if err != nil || snapshot == nil {
		return
	}
	encoded := res.AppendBinary(nil)
	m["sim.result_encode_ns"] = median(timeEach(n, time.Nanosecond, func() { encoded = res.AppendBinary(encoded[:0]) }))
	m["sim.result_decode_ns"] = median(timeEach(n, time.Nanosecond, func() { sim.DecodeResult(encoded) }))

	// experiments: spec hashing and transport, the cached RunSpec, the pool.
	warm := warmSpecs(e)
	f0, fmax := &warm[0], &warm[len(sc.warmFaults)-1]
	m["experiments.spec_hash_ns.f0"] = median(timeEach(n, time.Nanosecond, func() { f0.Hash() }))
	m["experiments.spec_hash_ns.f500"] = median(timeEach(n, time.Nanosecond, func() { fmax.Hash() }))
	grid, err := gridSpecs(e)
	if err != nil {
		return
	}
	wire, err := grid[0].EncodeJSON()
	if err != nil {
		return
	}
	m["experiments.spec_json_encode_ns"] = median(timeEach(n, time.Nanosecond, func() { grid[0].EncodeJSON() }))
	m["experiments.spec_json_decode_ns"] = median(timeEach(n, time.Nanosecond, func() { experiments.DecodeSpecJSON(wire) }))
	pool := timeEach(few, time.Microsecond, func() {
		experiments.RunJobs(e.pool, n, func(int) (struct{}, error) { return struct{}{}, nil })
	})
	m["experiments.pool_dispatch_us"] = median(pool) / float64(n)

	// cache: a store of its own in the scratch directory.
	dir, err := os.MkdirTemp(e.dir, "probe-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	store, err := cache.Open(dir)
	if err != nil {
		return
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = warm[i%len(warm)].Hash()
	}
	i := 0
	m["cache.put_us"] = median(timeEach(n, time.Microsecond, func() { store.Put(keys[i], res); i++ }))
	i = 0
	m["cache.get_hit_us"] = median(timeEach(n, time.Microsecond, func() { store.Get(keys[i]); i++ }))
	absent := grid[0].Hash()
	m["cache.get_miss_us"] = median(timeEach(n, time.Microsecond, func() { store.Get(absent) }))
	m["cache.entry_bytes"] = float64(len(encoded) + 32) // codec bytes + SHA-256 trailer
	m["cache.put_checkpoint_ms"] = median(timeEach(few, time.Millisecond, func() { store.PutCheckpoint(absent, snapshot) }))
	m["cache.get_checkpoint_ms"] = median(timeEach(few, time.Millisecond, func() { store.GetCheckpoint(absent) }))
	experiments.SetResultCache(store)
	m["experiments.runspec_hit_us"] = median(timeEach(n, time.Microsecond, func() { experiments.RunSpec(&warm[0]) }))
	experiments.SetResultCache(nil)
	if journal, _, err := store.OpenJournal(); err == nil {
		rec := cache.JournalRecord{Op: cache.JournalDone, Key: absent}
		m["cache.journal_append_us"] = median(timeEach(max(20, n/10), time.Microsecond, func() { journal.Append(rec) }))
		journal.Close()
	}

	// queue: one worker, the smallest job, minus what the job costs locally.
	tiny := tinySpec(e.seed)
	if tinyWire, err := tiny.EncodeJSON(); err == nil {
		m["queue.spec_frame_bytes"] = float64(len(tinyWire))
	}
	if tinyRes, err := tiny.Run(); err == nil {
		m["queue.result_frame_bytes"] = float64(base64.StdEncoding.EncodedLen(len(tinyRes.AppendBinary(nil))))
	}
	start := time.Now()
	s, err := serve(1, e.seed)
	if err != nil {
		return
	}
	m["queue.connect_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
	local := median(timeEach(n, time.Millisecond, func() { tiny.Run() }))
	trips := timeEach(n, time.Millisecond, func() { s.srv.Execute(tiny) })
	m["queue.roundtrip_ms"] = quantile(trips, 0.5) - local
	m["queue.roundtrip_ms_p99"] = quantile(trips, 0.99) - local
	s.stop()
}
