package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Range summarises the repetitions behind one timed metric of a run.
type Range struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// Outcome is everything one run of one workload measured. Its first four
// fields are the line the run prints last; the rest goes to -detail.
type Outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Traced   bool             `json:"traced"`
	Digest   string           `json:"digest"`          // SHA-256 over one repetition's Result bytes
	Points   []string         `json:"points"`          // per-result digests of that repetition
	Reps     int              `json:"reps"`            // timed repetitions behind every timing
	Spread   map[string]Range `json:"spread"`          // per timed metric, over those repetitions
	Errors   []string         `json:"errors"`          // what failed, if anything
	Spans    []Span           `json:"spans,omitempty"` // traced runs
	RunS     float64          `json:"run_s"`           // how long the whole run took
}

// sample is one timed repetition.
type sample struct {
	wall, simSeconds float64
	cycles           int64
	points           int
}

func (s sample) cyclesPerS() float64 {
	if s.simSeconds > 0 {
		return float64(s.cycles) / s.simSeconds
	}
	return float64(s.cycles) / s.wall
}

func digestOf(results []*sim.Result) (whole string, each []string) {
	all := sha256.New()
	for _, res := range results {
		b := res.AppendBinary(nil)
		all.Write(b)
		sum := sha256.Sum256(b)
		each = append(each, hex.EncodeToString(sum[:8]))
	}
	return hex.EncodeToString(all.Sum(nil)), each
}

const (
	minReps   = 3 // timed repetitions behind an end-to-end timing
	minSetups = 5 // set-ups behind setup_s ...
	// ... and a set-up of well under a millisecond is repeated until this
	// much time or this many samples stand behind it.
	minSetupSeconds = 0.25
	maxSetups       = 200
)

// measure runs one workload for about the given seconds: a discarded
// warm-up repetition, then timed repetitions, each on a fresh set-up and
// the same inputs, so every repetition must return the same bytes. A traced
// run alternates untraced and traced repetitions, which gives the tracing
// overhead and the transparency check from inside one process.
func measure(w workload, e *env, seconds float64, traced bool) *Outcome {
	begin := time.Now()
	out := &Outcome{Workload: w.name, Seed: e.seed, Traced: traced, Metrics: map[string]Metric{}, Spread: map[string]Range{}}
	var tr *tracer
	if traced {
		tr = newTracer(w.name)
	}
	root := tr.begin("workload", -1)
	ops := w.ops(e.sc)
	fail := func(err error) {
		out.Failed += ops
		out.Errors = append(out.Errors, err.Error())
	}

	var (
		setups       []float64
		setupSeconds float64
		plain        []sample
		withTr       []sample
		first        *rep // the warm-up's results: every later repetition must match them
		lastTraced   *rep
		mem0, mem1   runtime.MemStats
	)
	timedSetup := func() (*instance, error) {
		t0 := time.Now()
		inst, err := w.setup(e)
		took := time.Since(t0).Seconds()
		setups, setupSeconds = append(setups, took), setupSeconds+took
		if err != nil {
			fail(fmt.Errorf("set-up: %w", err))
		}
		return inst, err
	}
	enoughReps := func() bool {
		if traced {
			return len(plain) >= 2 && len(withTr) >= 2
		}
		return len(plain) >= minReps
	}
	for i := 0; len(out.Errors) == 0; i++ {
		if i == 1 {
			runtime.ReadMemStats(&mem0)
		}
		if i > 0 && time.Since(begin).Seconds() >= seconds && enoughReps() {
			break
		}
		var rt *tracer // nil on the warm-up and on every other repetition after it
		if traced && i > 0 && i%2 == 0 {
			rt = tr
			tr.rep = len(withTr)
		}
		out.Attempted += ops

		sid := rt.begin("setup", root)
		inst, err := timedSetup()
		rt.end(sid)
		if err != nil {
			break
		}
		rid := rt.begin("rep", root)
		t1 := time.Now()
		r, err := inst.run(rt, rid)
		wall := time.Since(t1).Seconds()
		rt.end(rid)
		inst.close()
		if err != nil {
			fail(err)
			break
		}
		digest, each := digestOf(r.results)
		if first == nil {
			first, out.Digest, out.Points = r, digest, each
		} else if digest != out.Digest {
			fail(fmt.Errorf("repetition %d returned other results than the first (traced: %v)", i, rt != nil))
			break
		}
		if i == 0 {
			continue // warm-up
		}
		s := sample{wall: wall, simSeconds: r.simSeconds, points: len(r.results)}
		for _, res := range r.results {
			s.cycles += res.Cycles
		}
		if rt != nil {
			withTr, lastTraced = append(withTr, s), r
		} else {
			plain = append(plain, s)
		}
	}
	runtime.ReadMemStats(&mem1)
	for len(out.Errors) == 0 && (len(setups) < minSetups || setupSeconds < minSetupSeconds && len(setups) < maxSetups) {
		if inst, err := timedSetup(); err == nil {
			inst.close()
		}
	}
	tr.end(root)

	out.Correct = len(out.Errors) == 0
	out.Reps = len(plain)
	switch {
	case !out.Correct:
	case traced:
		out.layerRows(e, tr, plain, withTr, first, lastTraced)
		out.set(perLayer, "proc.total_alloc_mb", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20))
		out.set(perLayer, "proc.gc_cycles", float64(mem1.NumGC-mem0.NumGC))
		out.Spans = tr.spans
	default:
		out.endToEndMetrics(plain, setups, first)
	}
	out.RunS = time.Since(begin).Seconds()
	return out
}

func (out *Outcome) set(decls []decl, name string, v float64) {
	out.Metrics[name] = Metric{v, unitOf(decls, name)}
}

func walls(xs []sample) []float64 {
	return column(xs, func(s sample) float64 { return s.wall })
}

// endToEndMetrics fills the metrics of an untraced run: the best timed
// repetition (see best), and the simulated statistics of one repetition.
func (out *Outcome) endToEndMetrics(plain []sample, setups []float64, first *rep) {
	timed := map[string][]float64{
		"wall_s":           walls(plain),
		"sim_cycles_per_s": column(plain, sample.cyclesPerS),
		"points_per_s":     column(plain, func(s sample) float64 { return float64(s.points) / s.wall }),
		"setup_s":          setups,
	}
	for _, d := range endToEnd {
		if xs, ok := timed[d.Name]; ok {
			out.set(endToEnd, d.Name, best(xs, d.Better))
			out.Spread[d.Name] = spreadOf(xs)
		}
	}
	var acc, lat []float64
	for _, res := range first.results {
		acc = append(acc, res.AcceptedLoad)
		lat = append(lat, res.AvgLatency)
	}
	out.set(endToEnd, "accepted_load", mean(acc))
	out.set(endToEnd, "avg_latency_cycles", mean(lat))
}

// layerRows fills the rows of a traced run: the probes, the spans of the
// traced repetitions, the layers' counters and the process's own figures.
func (out *Outcome) layerRows(e *env, tr *tracer, plain, withTr []sample, first, lastTraced *rep) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	probes(e, m)
	tr.layerMetrics(m, first, lastTraced)
	if c := lastTraced.counts; c["sim.snapshot_count"] > 0 {
		// (checkpointed run - plain run - time in the sink) / snapshots
		sink := m["cache.put_checkpoint_ms"] * c["sim.snapshot_count"]
		m["sim.snapshot_capture_ms"] = ((m["sim.run_s.PolSP-0.7"]-c["plain_run_s"])*1000 - sink) / c["sim.snapshot_count"]
	}
	m["trace.overhead_pct"] = 100 * (best(walls(withTr), "lower")/best(walls(plain), "lower") - 1)
	out.Spread["wall_s"] = spreadOf(walls(plain))
	out.Spread["traced_wall_s"] = spreadOf(walls(withTr))
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m["proc.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	for name, v := range m {
		out.set(perLayer, name, v)
	}
}

func column(xs []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func spreadOf(xs []float64) Range {
	r := Range{Min: xs[0], Median: median(xs), Max: xs[0], N: len(xs)}
	for _, x := range xs {
		r.Min, r.Max = min(r.Min, x), max(r.Max, x)
	}
	return r
}

// layerMetrics fills the rows that come from the traced repetitions: the
// spans, and the simulated statistics of the results.
func (t *tracer) layerMetrics(m map[string]float64, first, last *rep) {
	type agg struct{ calls, sampled, ns float64 }
	aggs := map[string]*agg{}
	reps := t.rep + 1
	var (
		runS           = map[string][]float64{}
		selfS          = make([]float64, reps)
		rebuilds, puts []float64
		jobs           []float64
	)
	for i := range t.spans {
		sp := &t.spans[i]
		switch {
		case strings.HasPrefix(sp.Name, "sim.Run "):
			point := strings.TrimPrefix(sp.Name, "sim.Run ")
			runS[point] = append(runS[point], sp.seconds())
			selfS[sp.Rep] += t.selfSeconds(i)
		case sp.Calls > 0:
			a := aggs[sp.Name]
			if a == nil {
				a = &agg{}
				aggs[sp.Name] = a
			}
			if sp.Rep == 0 {
				a.calls += float64(sp.Calls) // counts are per repetition and repeat exactly
			}
			a.sampled += float64(sp.Sampled)
			a.ns += float64(sp.SampledNs)
		case sp.Name == "core.Rebuild":
			rebuilds = append(rebuilds, sp.seconds()*1000)
		case sp.Name == "cache.PutCheckpoint":
			puts = append(puts, sp.seconds()*1000)
		case sp.Name == "job":
			jobs = append(jobs, sp.seconds())
		}
	}
	perCall := func(name string) (calls, ns float64) {
		a := aggs[name]
		if a == nil || a.sampled == 0 {
			return 0, 0
		}
		return a.calls, max(0, a.ns/a.sampled-t.clockNs)
	}
	m["core.candidates_calls"], m["core.candidates_ns"] = perCall("core.Candidates")
	m["core.init_calls"], _ = perCall("core.Init")
	m["core.advance_calls"], _ = perCall("core.Advance")
	m["traffic.dest_calls"], m["traffic.dest_ns"] = perCall("traffic.Dest")
	m["core.rebuild_calls"] = float64(len(rebuilds)) / float64(reps)
	m["core.rebuild_ms"], m["core.rebuild_ms_max"] = median(rebuilds), maxOf(rebuilds)
	if len(puts) > 0 {
		m["cache.put_checkpoint_ms"] = median(puts) // the real sink replaces the probe's figure
	}
	m["experiments.job_s"], m["experiments.job_s_max"] = median(jobs), maxOf(jobs)
	for point, secs := range runS {
		m["sim.run_s."+point] = median(secs)
	}

	var cycles, delivered float64
	var util, hops, jain, esc []float64
	for _, res := range first.results {
		cycles += float64(res.Cycles)
		delivered += float64(res.DeliveredPackets)
		util, hops = append(util, res.LinkUtilization), append(hops, res.AvgHops)
		jain, esc = append(jain, res.JainIndex), append(esc, res.EscapeFraction)
		m["sim.lost_packets"] += float64(res.LostPackets)
		m["sim.stalled_generations"] += float64(res.StalledGenerations)
	}
	m["sim.link_utilization"], m["sim.avg_hops"] = mean(util), mean(hops)
	m["sim.jain_index"], m["core.escape_fraction"] = mean(jain), mean(esc)
	if len(runS) > 0 {
		m["sim.self_s"] = median(selfS)
		m["sim.self_ns_per_cycle"] = m["sim.self_s"] * 1e9 / cycles
		m["sim.self_ns_per_delivered_packet"] = m["sim.self_s"] * 1e9 / delivered
	}
	for name, v := range last.counts {
		if _, declared := m[name]; declared {
			m[name] = v
		}
	}
}
