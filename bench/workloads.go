package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/queue"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// scale sizes every workload. fullScale is the benchmark; toyScale is the
// smoke test's copy of the same code paths on 4x4 networks.
type scale struct {
	dims    []int // the big network of the sim workloads
	per     int   // servers per switch
	vcs     int
	loaded  experiments.Budget // per point of loaded and checkpointed
	lowA    experiments.Budget // lowload at load 0.01
	lowB    experiments.Budget // lowload at load 0.002
	storm   experiments.Budget // per point of faultstorm
	faults  int                // link failures per faultstorm point
	ckptGap int64              // cycles between snapshots

	gridDims   []int
	gridBudget experiments.Budget
	gridLoads  []float64

	warmSpecs  int   // grid-warm cache entries
	warmFaults []int // fault-list lengths cycled over the entries
	warmPasses int   // ExecuteJobs passes per repetition

	probeSamples int // samples per micro-probe
}

// fullScale is the ISSUE 11 sizing scaled down uniformly until one
// repetition of a workload takes about a second on the 2-core reference
// box, so that a 10 s run holds a warm-up and seven or more timed
// repetitions: the run reports its best repetition, and a repetition must
// be short enough to fit between a busy neighbour's bursts.
func fullScale() scale {
	return scale{
		dims:    []int{8, 8, 8},
		per:     8,
		vcs:     6,
		loaded:  experiments.Budget{Warmup: 100, Measure: 300},
		lowA:    experiments.Budget{Warmup: 2000, Measure: 50000},
		lowB:    experiments.Budget{Warmup: 2000, Measure: 100000},
		storm:   experiments.Budget{Warmup: 125, Measure: 500},
		faults:  8,
		ckptGap: 50,

		gridDims:   []int{4, 4, 4},
		gridBudget: experiments.Budget{Warmup: 250, Measure: 450},
		gridLoads:  []float64{0.2, 0.4, 0.6, 0.8, 1.0},

		warmSpecs:  2000,
		warmFaults: []int{0, 50, 200, 500},
		warmPasses: 8,

		probeSamples: 1000,
	}
}

func toyScale() scale {
	return scale{
		dims:    []int{4, 4},
		per:     4,
		vcs:     4,
		loaded:  experiments.Budget{Warmup: 50, Measure: 150},
		lowA:    experiments.Budget{Warmup: 100, Measure: 2000},
		lowB:    experiments.Budget{Warmup: 100, Measure: 4000},
		storm:   experiments.Budget{Warmup: 50, Measure: 250},
		faults:  4,
		ckptGap: 25,

		gridDims:   []int{4, 4},
		gridBudget: experiments.Budget{Warmup: 40, Measure: 80},
		gridLoads:  []float64{0.3, 0.9},

		warmSpecs:  40,
		warmFaults: []int{0, 2, 5, 9},
		warmPasses: 2,

		probeSamples: 20,
	}
}

// env is what a workload is given: the seed every input derives from, the
// sizes, a scratch directory of its own and the grid pool size.
type env struct {
	seed uint64
	sc   scale
	dir  string
	pool int

	plain   *reference // checkpointed: the uninterrupted run, made on first use
	warmDir string     // grid-warm: the populated store, made on first use
}

func newEnv(seed uint64, sc scale, dir string) *env {
	// Grid-level parallelism only: independent runs on the RunJobs pool.
	// Every simulation itself runs at Workers: 1 (ROADMAP item 0).
	experiments.SetDefaultRunWorkers(1)
	return &env{seed: seed, sc: sc, dir: dir, pool: min(2, runtime.NumCPU())}
}

// rep is what one repetition produced: the results of its operations in a
// fixed order, the host seconds spent inside sim.Run (zero when the
// simulations ran inside the experiments layer), and counts read from the
// layers' own counters.
type rep struct {
	results    []*sim.Result
	simSeconds float64
	counts     map[string]float64
}

// instance is one set-up of a workload: run is the timed region, close
// releases what setup acquired. An instance runs once.
type instance struct {
	run   func(tr *tracer, parent int) (*rep, error)
	close func()
}

// workload is one set of inputs. ops is how many operations (sim.Run calls
// or grid points) one repetition attempts; a repetition that returns an
// error counts all of them as failed.
type workload struct {
	name  string
	why   string
	ops   func(sc scale) int
	setup func(e *env) (*instance, error)
}

func workloads() []workload {
	return []workload{
		{"loaded", "saturated 8x8x8 where paper sweeps spend their cycles: allocator and Candidates do all the work", func(scale) int { return 3 }, setupLoaded},
		{"lowload", "near-idle 8x8x8: timing wheel, arrival heap and fast-forward do the work, the allocator is idle", func(scale) int { return 2 }, setupLowload},
		{"faultstorm", "link failures every ~80 cycles: Mechanism.Rebuild writes the tables that loaded only reads", func(scale) int { return 2 }, setupFaultstorm},
		{"grid-cold", "regenerate a figure cold: 60 mechanism builds, spec hashes, cache misses and puts on the runner pool", gridPoints, setupGridCold},
		{"grid-warm", "re-render from a warm cache: spec canonicalise and hash, cache get, trailer verify, decode; no sim.Run", func(sc scale) int { return sc.warmSpecs * sc.warmPasses }, setupGridWarm},
		{"grid-served", "the grid-cold points through queue.Serve and two workers: grid-cold plus the queue tax", gridPoints, setupGridServed},
		{"checkpointed", "the loaded PolSP point with periodic snapshots to a store, then a resume: the price of checkpointing", func(scale) int { return 2 }, setupCheckpointed},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bigNet is the fault-free 8x8x8 (toy: 4x4) network with the SurePath
// mechanisms the sim workloads route with.
type bigNet struct {
	h   *topo.HyperX
	nw  *topo.Network
	pat traffic.Pattern
}

func newBigNet(sc scale) (*bigNet, error) {
	h, err := topo.NewHyperX(sc.dims...)
	if err != nil {
		return nil, err
	}
	pat, err := traffic.NewUniform(h.Switches() * sc.per)
	if err != nil {
		return nil, err
	}
	return &bigNet{h: h, nw: topo.NewNetwork(h, topo.NewFaultSet()), pat: pat}, nil
}

// point is one sim.Run of a sim workload.
type point struct {
	name   string
	mech   routing.Mechanism
	nw     *topo.Network
	load   float64
	budget experiments.Budget
	faults []sim.FaultEvent
	index  int // seeds the run, so equal points of two workloads agree
}

func (b *bigNet) options(e *env, p point) sim.RunOptions {
	return sim.RunOptions{
		Net:              p.nw,
		ServersPerSwitch: e.sc.per,
		Mechanism:        p.mech,
		Pattern:          b.pat,
		Load:             p.load,
		WarmupCycles:     p.budget.Warmup,
		MeasureCycles:    p.budget.Measure,
		FaultSchedule:    p.faults,
		Seed:             experiments.JobSeed(e.seed, p.index),
		Workers:          1,
	}
}

// instance runs the points and holds nothing to release.
func (b *bigNet) instance(e *env, points []point) *instance {
	return &instance{
		run:   func(tr *tracer, parent int) (*rep, error) { return b.runPoints(e, tr, parent, points) },
		close: func() {},
	}
}

// runPoints runs the points back to back and checks what holds without a
// golden: fault-free points lose nothing and every scheduled fault fires.
func (b *bigNet) runPoints(e *env, tr *tracer, parent int, points []point) (*rep, error) {
	out := &rep{counts: map[string]float64{}}
	for _, p := range points {
		res, secs, err := tr.runSim(parent, p.name, b.options(e, p))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if len(p.faults) == 0 && res.LostPackets != 0 {
			return nil, fmt.Errorf("%s: fault-free run lost %d packets", p.name, res.LostPackets)
		}
		if res.FaultsApplied != int64(len(p.faults)) {
			return nil, fmt.Errorf("%s: %d of %d faults applied", p.name, res.FaultsApplied, len(p.faults))
		}
		out.results = append(out.results, res)
		out.simSeconds += secs
	}
	return out, nil
}

func setupLoaded(e *env) (*instance, error) {
	b, err := newBigNet(e.sc)
	if err != nil {
		return nil, err
	}
	pol, err := core.New(b.nw, core.PolarizedRoutes, e.sc.vcs)
	if err != nil {
		return nil, err
	}
	omni, err := core.New(b.nw, core.OmniRoutes, e.sc.vcs)
	if err != nil {
		return nil, err
	}
	points := []point{
		{name: "PolSP-0.7", mech: pol, nw: b.nw, load: 0.7, budget: e.sc.loaded, index: 0},
		{name: "OmniSP-0.7", mech: omni, nw: b.nw, load: 0.7, budget: e.sc.loaded, index: 1},
		{name: "PolSP-1.0", mech: pol, nw: b.nw, load: 1.0, budget: e.sc.loaded, index: 2},
	}
	return b.instance(e, points), nil
}

func setupLowload(e *env) (*instance, error) {
	b, err := newBigNet(e.sc)
	if err != nil {
		return nil, err
	}
	pol, err := core.New(b.nw, core.PolarizedRoutes, e.sc.vcs)
	if err != nil {
		return nil, err
	}
	points := []point{
		{name: "PolSP-0.01", mech: pol, nw: b.nw, load: 0.01, budget: e.sc.lowA, index: 0},
		{name: "PolSP-0.002", mech: pol, nw: b.nw, load: 0.002, budget: e.sc.lowB, index: 1},
	}
	return b.instance(e, points), nil
}

func setupFaultstorm(e *env) (*instance, error) {
	b, err := newBigNet(e.sc)
	if err != nil {
		return nil, err
	}
	seq := topo.RandomFaultSequence(b.h, e.seed)
	total := e.sc.storm.Warmup + e.sc.storm.Measure
	var schedule []sim.FaultEvent
	for f := 0; f < e.sc.faults; f++ {
		schedule = append(schedule, sim.FaultEvent{Cycle: total * int64(f+1) / int64(e.sc.faults+1), Edge: seq[f]})
	}
	// The run adds every failed link to its network and rebuilds its
	// mechanism in place, so each point owns both.
	var points []point
	for i, base := range []core.BaseRoutes{core.PolarizedRoutes, core.OmniRoutes} {
		nw := topo.NewNetwork(b.h, topo.NewFaultSet())
		mech, err := core.New(nw, base, e.sc.vcs)
		if err != nil {
			return nil, err
		}
		points = append(points, point{name: mech.Name() + "-0.3", mech: mech, nw: nw, load: 0.3, budget: e.sc.storm, faults: schedule, index: i})
	}
	return b.instance(e, points), nil
}

// setupCheckpointed is the first loaded point run with a snapshot every
// ckptGap cycles into a store, then resumed from the middle snapshot. Both
// must return the bytes of the plain run, which the first repetition of a
// process makes once (untraced) and keeps.
func setupCheckpointed(e *env) (*instance, error) {
	b, err := newBigNet(e.sc)
	if err != nil {
		return nil, err
	}
	pol, err := core.New(b.nw, core.PolarizedRoutes, e.sc.vcs)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.dir, "checkpointed-")
	if err != nil {
		return nil, err
	}
	store, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	p := point{name: "PolSP-0.7", mech: pol, nw: b.nw, load: 0.7, budget: e.sc.loaded, index: 0}
	spec := experiments.JobSpec{Topo: experiments.HyperXSpec(b.h), Per: e.sc.per, Mechanism: "PolSP", Pattern: "Uniform",
		VCs: e.sc.vcs, Load: p.load, Budget: p.budget, Seed: experiments.JobSeed(e.seed, p.index)}
	hash := spec.Hash()
	// A snapshot is due at every multiple of the gap before the last cycle.
	want := (p.budget.Warmup + p.budget.Measure - 1) / e.sc.ckptGap
	run := func(tr *tracer, parent int) (*rep, error) {
		var snaps [][]byte
		var bytesShipped int
		o := b.options(e, p)
		o.Checkpoint = &sim.CheckpointOptions{EveryCycles: e.sc.ckptGap, SpecHash: hash, Sink: func(snap []byte) error {
			snaps = append(snaps, snap)
			bytesShipped += len(snap)
			return store.PutCheckpoint(hash, snap)
		}}
		full, fullSecs, err := tr.runSim(parent, p.name, o)
		if err != nil {
			return nil, fmt.Errorf("checkpointed run: %w", err)
		}
		if int64(len(snaps)) != want {
			return nil, fmt.Errorf("checkpointed run shipped %d snapshots, want %d", len(snaps), want)
		}
		o = b.options(e, p)
		o.Checkpoint = &sim.CheckpointOptions{SpecHash: hash, Resume: snaps[len(snaps)/2]}
		resumed, resumedSecs, err := tr.runSim(parent, "resume", o)
		if err != nil {
			return nil, fmt.Errorf("resumed run: %w", err)
		}
		ref, err := plainReference(e, b, p)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(full.AppendBinary(nil), ref.bytes) || !bytes.Equal(resumed.AppendBinary(nil), ref.bytes) {
			return nil, errors.New("checkpointed or resumed result differs from the uninterrupted run")
		}
		return &rep{
			results:    []*sim.Result{full, resumed},
			simSeconds: fullSecs + resumedSecs,
			counts: map[string]float64{
				"sim.snapshot_count": float64(len(snaps)),
				"sim.snapshot_bytes": float64(bytesShipped) / float64(len(snaps)),
				"plain_run_s":        ref.seconds,
			},
		}, nil
	}
	return &instance{run: run, close: func() { os.RemoveAll(dir) }}, nil
}

// reference is the uninterrupted run the checkpointed workload compares
// with: made once per env, on first use, outside any trace.
type reference struct {
	bytes   []byte
	seconds float64
}

func plainReference(e *env, b *bigNet, p point) (*reference, error) {
	if e.plain != nil {
		return e.plain, nil
	}
	res, secs, err := (*tracer)(nil).runSim(-1, p.name, b.options(e, p))
	if err != nil {
		return nil, fmt.Errorf("uninterrupted run: %w", err)
	}
	e.plain = &reference{bytes: res.AppendBinary(nil), seconds: secs}
	return e.plain, nil
}

// gridSpecs enumerates the grid-cold / grid-served points exactly as
// experiments.LoadSweep would (pattern, mechanism, load order; JobSeed per
// index; shared PatternSeed). The workloads run them through ExecuteJobs,
// which is what LoadSweep does next, so that whole Results come back.
//
// It also checks that the points have distinct content addresses: a grid
// with a repeated point would hit its own cache and not be cold.
func gridSpecs(e *env) ([]experiments.JobSpec, error) {
	h := topo.MustHyperX(e.sc.gridDims...)
	var specs []experiments.JobSpec
	for _, pat := range []string{"Uniform", "Regular Permutation to Neighbour"} {
		for _, mech := range experiments.MechanismNames() {
			for _, load := range e.sc.gridLoads {
				specs = append(specs, experiments.JobSpec{
					Topo:        experiments.HyperXSpec(h),
					Per:         e.sc.gridDims[0],
					Mechanism:   mech,
					Pattern:     pat,
					VCs:         2 * len(e.sc.gridDims),
					Load:        load,
					Budget:      e.sc.gridBudget,
					Seed:        experiments.JobSeed(e.seed, len(specs)),
					PatternSeed: e.seed,
				})
			}
		}
	}
	seen := map[string]bool{}
	for i := range specs {
		key := specs[i].Hash()
		if seen[key] {
			return nil, fmt.Errorf("grid point %s repeats an earlier point", &specs[i])
		}
		seen[key] = true
	}
	return specs, nil
}

func gridPoints(sc scale) int { return 2 * len(experiments.MechanismNames()) * len(sc.gridLoads) }

// executeGrid runs specs on the pool under an "ExecuteJobs" span.
func executeGrid(e *env, tr *tracer, parent int, specs []experiments.JobSpec, run experiments.Executor) ([]*sim.Result, error) {
	id := tr.begin("ExecuteJobs", parent)
	defer tr.end(id)
	experiments.SetExecutor(tr.jobExecutor(id, run))
	defer experiments.SetExecutor(nil)
	results, err := experiments.ExecuteJobs(e.pool, specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		if res.LostPackets != 0 {
			return nil, fmt.Errorf("%s: fault-free run lost %d packets", &specs[i], res.LostPackets)
		}
	}
	return results, nil
}

func setupGridCold(e *env) (*instance, error) {
	dir, err := os.MkdirTemp(e.dir, "grid-cold-")
	if err != nil {
		return nil, err
	}
	store, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	specs, err := gridSpecs(e)
	if err != nil {
		return nil, err
	}
	run := func(tr *tracer, parent int) (*rep, error) {
		experiments.SetResultCache(store)
		defer experiments.SetResultCache(nil)
		results, err := executeGrid(e, tr, parent, specs, (*experiments.JobSpec).Run)
		if err != nil {
			return nil, err
		}
		hits, misses := store.Stats()
		if n, _ := store.Len(); hits != 0 || misses != int64(len(specs)) || n != len(specs) {
			return nil, fmt.Errorf("cold cache: %d hits, %d misses, %d entries; want 0, %d, %d", hits, misses, n, len(specs), len(specs))
		}
		return &rep{results: results, counts: storeCounts(store)}, nil
	}
	return &instance{run: run, close: func() { os.RemoveAll(dir) }}, nil
}

func storeCounts(store *cache.Store) map[string]float64 {
	hits, misses := store.Stats()
	return map[string]float64{"cache.hits": float64(hits), "cache.misses": float64(misses), "cache.healed": float64(store.Healed())}
}

// warmSpecs is the 8x8x8 Figure 5 shape (6 mechanisms x 4 patterns x 10
// loads) repeated over fault lists of growing length, which is where the
// canonical encoding's cost grows. Nothing here is ever simulated.
func warmSpecs(e *env) []experiments.JobSpec {
	h := topo.MustHyperX(e.sc.dims...)
	seq := topo.RandomFaultSequence(h, e.seed)
	patterns := []string{"Uniform", "Random Server Permutation", "Dimension Complement Reverse", "Regular Permutation to Neighbour"}
	mechs := experiments.MechanismNames()
	specs := make([]experiments.JobSpec, e.sc.warmSpecs)
	for i := range specs {
		nf := min(e.sc.warmFaults[i%len(e.sc.warmFaults)], len(seq))
		shape := i / len(e.sc.warmFaults)
		specs[i] = experiments.JobSpec{
			Topo:        experiments.HyperXSpec(h),
			Per:         e.sc.per,
			Mechanism:   mechs[shape%len(mechs)],
			Pattern:     patterns[shape/len(mechs)%len(patterns)],
			VCs:         e.sc.vcs,
			Load:        float64(shape/(len(mechs)*len(patterns))%10+1) / 10,
			Budget:      experiments.DefaultBudget(),
			Faults:      seq[:nf],
			Seed:        experiments.JobSeed(e.seed, i),
			PatternSeed: e.seed,
		}
	}
	return specs
}

// syntheticResult stands in for the result of spec i: plausible values
// drawn from a SplitMix64 stream of the seed, every field set.
func syntheticResult(seed uint64, i int, spec *experiments.JobSpec) *sim.Result {
	state := seed ^ rng.Mix64(uint64(i)+1)
	unit := func() float64 { return float64(rng.SplitMix64(&state)>>11) / (1 << 53) }
	cycles := spec.Budget.Warmup + spec.Budget.Measure
	delivered := int64(1e5 * (1 + unit()))
	return &sim.Result{
		OfferedLoad:        spec.Load,
		AcceptedLoad:       spec.Load * (0.8 + 0.2*unit()),
		AvgLatency:         60 + 40*unit(),
		AvgHops:            2 + unit(),
		JainIndex:          0.99 + 0.01*unit(),
		EscapeFraction:     0.01 * unit(),
		LinkUtilization:    0.5 * unit(),
		DeliveredPackets:   delivered,
		GeneratedPackets:   delivered + int64(100*unit()),
		StalledGenerations: int64(1000 * unit()),
		FaultsApplied:      0,
		Cycles:             cycles,
	}
}

// setupGridWarm opens the populated store and enumerates the specs. The
// store is populated by the first set-up of a process and kept: a set-up
// measures what a warm re-render pays before its first lookup, and two
// thousand file creations per set-up would make setup_s (and, through the
// journal's background work, every timing after it) follow the state of
// the file system instead.
func setupGridWarm(e *env) (*instance, error) {
	specs := warmSpecs(e)
	put := make([][]byte, len(specs))
	results := make([]*sim.Result, len(specs))
	for i := range specs {
		results[i] = syntheticResult(e.seed, i, &specs[i])
		put[i] = results[i].AppendBinary(nil)
	}
	populate := e.warmDir == ""
	if populate {
		dir, err := os.MkdirTemp(e.dir, "grid-warm-")
		if err != nil {
			return nil, err
		}
		e.warmDir = dir
	}
	store, err := cache.Open(e.warmDir)
	if err != nil {
		return nil, err
	}
	for i := 0; populate && i < len(specs); i++ {
		if err := store.Put(specs[i].Hash(), results[i]); err != nil {
			return nil, err
		}
	}
	miss := func(spec *experiments.JobSpec) (*sim.Result, error) {
		return nil, errors.New("warm cache missed")
	}
	run := func(tr *tracer, parent int) (*rep, error) {
		experiments.SetResultCache(store)
		defer experiments.SetResultCache(nil)
		out := &rep{}
		for pass := 0; pass < e.sc.warmPasses; pass++ {
			results, err := executeGrid(e, tr, parent, specs, miss)
			if err != nil {
				return nil, err
			}
			for i, res := range results {
				if !bytes.Equal(res.AppendBinary(nil), put[i]) {
					return nil, fmt.Errorf("%s: cache returned other bytes than were put", &specs[i])
				}
			}
			out.results = append(out.results, results...)
		}
		hits, misses := store.Stats()
		if want := int64(len(specs) * e.sc.warmPasses); hits != want || misses != 0 || store.Healed() != 0 {
			return nil, fmt.Errorf("warm cache: %d hits, %d misses, %d healed; want %d, 0, 0", hits, misses, store.Healed(), want)
		}
		out.counts = storeCounts(store)
		return out, nil
	}
	return &instance{run: run, close: func() {}}, nil
}

// tinySpec is the smallest job the stack accepts: the handshake probe of
// grid-served and the round-trip probe of the queue layer.
func tinySpec(seed uint64) *experiments.JobSpec {
	return &experiments.JobSpec{Topo: experiments.HyperXSpec(topo.MustHyperX(2, 2)), Per: 1, Mechanism: "Minimal", Pattern: "Uniform",
		VCs: 4, Load: 0.5, Budget: experiments.Budget{Measure: 1}, Seed: seed, PatternSeed: seed}
}

// served is a queue server on a loopback port with in-process workers.
type served struct {
	srv     *queue.Server
	workers sync.WaitGroup
	errs    chan error
}

// serve starts the server and the workers and returns once a job has made
// the round trip, so the timed region never includes the handshake.
func serve(workers int, seed uint64) (*served, error) {
	srv, err := queue.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, errs: make(chan error, workers)} // one slot per worker: none blocks on exit
	for w := 0; w < workers; w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			if err := queue.Work(srv.Addr(), 1); err != nil {
				s.errs <- err
			}
		}()
	}
	if _, err := srv.Execute(tinySpec(seed)); err != nil {
		s.stop()
		return nil, fmt.Errorf("queue handshake: %w", err)
	}
	return s, nil
}

// stop closes the server and waits for every worker to return.
func (s *served) stop() error {
	err := s.srv.Close()
	s.workers.Wait()
	close(s.errs)
	for werr := range s.errs {
		err = errors.Join(err, werr)
	}
	return err
}

func setupGridServed(e *env) (*instance, error) {
	s, err := serve(e.pool, e.seed)
	if err != nil {
		return nil, err
	}
	specs, err := gridSpecs(e)
	if err != nil {
		s.stop()
		return nil, err
	}
	run := func(tr *tracer, parent int) (*rep, error) {
		results, err := executeGrid(e, tr, parent, specs, s.srv.Execute)
		if err != nil {
			return nil, err
		}
		st := s.srv.Stats()
		if st.Requeues != 0 || st.CorruptFrames != 0 || st.ZombiesDropped != 0 || st.LeasesRevoked != 0 {
			return nil, fmt.Errorf("queue was not quiet: %s", st.Summary())
		}
		return &rep{results: results, counts: map[string]float64{
			"queue.requeues": float64(st.Requeues), "queue.corrupt_frames": float64(st.CorruptFrames),
			"queue.zombie_frames": float64(st.ZombiesDropped), "queue.leases_revoked": float64(st.LeasesRevoked),
		}}, nil
	}
	return &instance{run: run, close: func() { _ = s.stop() }}, nil
}
