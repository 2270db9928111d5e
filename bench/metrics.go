package main

import (
	"math"
	"slices"
	"sort"
)

// decl declares one metric. BENCHMARK.json is generated from these tables
// (-print-benchmark-json) and the smoke test holds the two together.
type decl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end: share of the parent's value it may worsen by
	// Floor, in the metric's unit, is what -compare lets it worsen by even
	// when that is more than Bound: ISSUE 11's "+25 % or +0.05 s, whichever
	// is larger" for setup_s. BENCHMARK.json has no field for it.
	Floor float64
}

// endToEnd is what a user of the repo sees. The first four are host time,
// the last two are simulated statistics; the two are never mixed. Failed
// operations are reported as failed/attempted beside the metrics (a metric
// that is 0 on every healthy run cannot carry a relative bound).
var endToEnd = []decl{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: "higher", Bound: 0.25},
	{Name: "points_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "accepted_load", Unit: "phits/srv/cycle", Better: "higher", Bound: 0.03},
	{Name: "avg_latency_cycles", Unit: "cycles", Better: "lower", Bound: 0.02},
}

// simPoints names every sim.Run span a sim workload makes.
var simPoints = []string{"PolSP-0.7", "OmniSP-0.7", "PolSP-1.0", "PolSP-0.01", "PolSP-0.002", "PolSP-0.3", "OmniSP-0.3", "resume"}

// perLayer is one row per layer measurement, all taken from outside the
// layer: probe loops on exported functions, the Mechanism / Pattern /
// Executor wrappers of the traced repetitions, and the layers' own
// counters. A row a workload does not exercise reads 0 there. README.md
// says which end-to-end metric each row should move, on which workload.
var perLayer = func() []decl {
	rows := []decl{
		{Name: "topo.build_ms", Unit: "ms", Better: "lower"},
		{Name: "topo.graph_ms", Unit: "ms", Better: "lower"},
		{Name: "routing.polarized_build_ms", Unit: "ms", Better: "lower"},
		{Name: "routing.candidates_ns.Polarized", Unit: "ns", Better: "lower"},
		{Name: "routing.candidates_ns.OmniWAR", Unit: "ns", Better: "lower"},
		{Name: "escape.build_ms", Unit: "ms", Better: "lower"},
		{Name: "escape.candidates_ns", Unit: "ns", Better: "lower"},
		{Name: "core.build_ms.PolSP", Unit: "ms", Better: "lower"},
		{Name: "core.build_ms.OmniSP", Unit: "ms", Better: "lower"},
		{Name: "core.candidates_calls", Unit: "count", Better: "lower"},
		{Name: "core.candidates_ns", Unit: "ns", Better: "lower"},
		{Name: "core.init_calls", Unit: "count", Better: "lower"},
		{Name: "core.advance_calls", Unit: "count", Better: "lower"},
		{Name: "core.rebuild_calls", Unit: "count", Better: "lower"},
		{Name: "core.rebuild_ms", Unit: "ms", Better: "lower"},
		{Name: "core.rebuild_ms_max", Unit: "ms", Better: "lower"},
		{Name: "core.escape_fraction", Unit: "share", Better: "lower"},
		{Name: "traffic.dest_calls", Unit: "count", Better: "lower"},
		{Name: "traffic.dest_ns", Unit: "ns", Better: "lower"},
	}
	for _, p := range simPoints {
		rows = append(rows, decl{Name: "sim.run_s." + p, Unit: "s", Better: "lower"})
	}
	return append(rows, []decl{
		{Name: "sim.self_s", Unit: "s", Better: "lower"},
		{Name: "sim.self_ns_per_cycle", Unit: "ns", Better: "lower"},
		{Name: "sim.self_ns_per_delivered_packet", Unit: "ns", Better: "lower"},
		{Name: "sim.construct_ms", Unit: "ms", Better: "lower"},
		{Name: "sim.bytes_per_switch", Unit: "bytes", Better: "lower"},
		{Name: "sim.result_encode_ns", Unit: "ns", Better: "lower"},
		{Name: "sim.result_decode_ns", Unit: "ns", Better: "lower"},
		{Name: "sim.snapshot_count", Unit: "count", Better: "lower"},
		{Name: "sim.snapshot_bytes", Unit: "bytes", Better: "lower"},
		{Name: "sim.snapshot_capture_ms", Unit: "ms", Better: "lower"},
		{Name: "sim.link_utilization", Unit: "share", Better: "higher"},
		{Name: "sim.avg_hops", Unit: "hops", Better: "lower"},
		{Name: "sim.lost_packets", Unit: "count", Better: "lower"},
		{Name: "sim.stalled_generations", Unit: "count", Better: "lower"},
		{Name: "sim.jain_index", Unit: "share", Better: "higher"},
		{Name: "experiments.spec_hash_ns.f0", Unit: "ns", Better: "lower"},
		{Name: "experiments.spec_hash_ns.f500", Unit: "ns", Better: "lower"},
		{Name: "experiments.spec_json_encode_ns", Unit: "ns", Better: "lower"},
		{Name: "experiments.spec_json_decode_ns", Unit: "ns", Better: "lower"},
		{Name: "experiments.runspec_hit_us", Unit: "us", Better: "lower"},
		{Name: "experiments.pool_dispatch_us", Unit: "us", Better: "lower"},
		{Name: "experiments.job_s", Unit: "s", Better: "lower"},
		{Name: "experiments.job_s_max", Unit: "s", Better: "lower"},
		{Name: "cache.put_us", Unit: "us", Better: "lower"},
		{Name: "cache.get_hit_us", Unit: "us", Better: "lower"},
		{Name: "cache.get_miss_us", Unit: "us", Better: "lower"},
		{Name: "cache.entry_bytes", Unit: "bytes", Better: "lower"},
		{Name: "cache.put_checkpoint_ms", Unit: "ms", Better: "lower"},
		{Name: "cache.get_checkpoint_ms", Unit: "ms", Better: "lower"},
		{Name: "cache.journal_append_us", Unit: "us", Better: "lower"},
		{Name: "cache.hits", Unit: "count", Better: "higher"},
		{Name: "cache.misses", Unit: "count", Better: "lower"},
		{Name: "cache.healed", Unit: "count", Better: "lower"},
		{Name: "queue.roundtrip_ms", Unit: "ms", Better: "lower"},
		{Name: "queue.roundtrip_ms_p99", Unit: "ms", Better: "lower"},
		{Name: "queue.spec_frame_bytes", Unit: "bytes", Better: "lower"},
		{Name: "queue.result_frame_bytes", Unit: "bytes", Better: "lower"},
		{Name: "queue.connect_ms", Unit: "ms", Better: "lower"},
		{Name: "queue.requeues", Unit: "count", Better: "lower"},
		{Name: "queue.corrupt_frames", Unit: "count", Better: "lower"},
		{Name: "queue.zombie_frames", Unit: "count", Better: "lower"},
		{Name: "queue.leases_revoked", Unit: "count", Better: "lower"},
		{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "proc.total_alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "proc.gomaxprocs", Unit: "count", Better: "higher"},
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	}...)
}()

func unitOf(decls []decl, name string) string {
	for _, d := range decls {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// quantile returns the q-quantile of xs by linear interpolation; 0 when
// xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// best is the estimator behind every end-to-end timing: the fastest of the
// run's repetitions (the smallest time, the largest rate). The noise of a
// shared box is one-sided and comes in bursts of a second or a few: a
// neighbour can only slow a repetition down. On this box the median of a
// 10 s window of repetitions moved by 19 % (interquartile, over ten
// windows) while a neighbour was busy and its minimum by 7 %; see README.md.
// The median, maximum and count of the same repetitions are in the run's
// detail and in the report.
func best(xs []float64, better string) float64 {
	if better == "higher" {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
