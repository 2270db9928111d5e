package main

import (
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Span is one traced interval. Parent is the index of the span that caused
// it (-1 for a root). Aggregate spans (core.Candidates, core.Init,
// core.Advance, traffic.Dest) stand for many short calls: Calls were
// counted, Sampled of them were timed and took SampledNs in total, and
// [StartNs, EndNs) is laid out as the estimated total so that self time is
// always "duration minus the children's cover".
type Span struct {
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	Workload  string `json:"workload"`
	Rep       int    `json:"rep"`
	Calls     int64  `json:"calls,omitempty"`
	Sampled   int64  `json:"sampled,omitempty"`
	SampledNs int64  `json:"sampled_ns,omitempty"`
}

func (s *Span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// the untraced run: every method is a no-op and no wrapper is installed.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	clockNs  float64 // what timing an empty call reads; taken off every sample
	workload string
	rep      int
	spans    []Span
}

// sampleStride times one call in this many; the rest are only counted.
const sampleStride = 64

func newTracer(workload string) *tracer {
	t := &tracer{t0: time.Now(), workload: workload}
	// What a timed sample of an empty call reads.
	const n = 20000
	var empty time.Duration
	for i := 0; i < n; i++ {
		empty += time.Since(time.Now())
	}
	t.clockNs = float64(empty) / n
	return t
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, StartNs: int64(time.Since(t.t0)), Parent: parent, Workload: t.workload, Rep: t.rep})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// sampler counts every call and times one in sampleStride.
type sampler struct{ calls, sampled, ns int64 }

func (s *sampler) due() bool {
	s.calls++
	return s.calls%sampleStride == 0
}

func (s *sampler) took(start time.Time) {
	s.ns += int64(time.Since(start))
	s.sampled++
}

// aggregate records a sampler as one child span of parent.
func (t *tracer) aggregate(name string, parent int, s sampler) {
	if s.calls == 0 {
		return
	}
	id := t.begin(name, parent)
	perCall := 0.0
	if s.sampled > 0 {
		perCall = float64(s.ns)/float64(s.sampled) - t.clockNs
		if perCall < 0 {
			perCall = 0
		}
	}
	t.mu.Lock()
	sp := &t.spans[id]
	sp.StartNs = t.spans[parent].StartNs
	sp.EndNs = sp.StartNs + int64(perCall*float64(s.calls))
	sp.Calls, sp.Sampled, sp.SampledNs = s.calls, s.sampled, s.ns
	t.mu.Unlock()
}

// tracedMech wraps the mechanism handed to one sim.Run (Workers: 1, so the
// counters need no synchronisation). Every call is forwarded unchanged.
type tracedMech struct {
	routing.Mechanism
	tr                  *tracer
	parent              int
	cand, init, advance sampler
}

func (m *tracedMech) Init(st *routing.PacketState, src, dst int32, r *rng.Rand) {
	if !m.init.due() {
		m.Mechanism.Init(st, src, dst, r)
		return
	}
	start := time.Now()
	m.Mechanism.Init(st, src, dst, r)
	m.init.took(start)
}

func (m *tracedMech) Candidates(cur int32, st *routing.PacketState, curVC int, scr *routing.Scratch, buf []routing.Candidate) []routing.Candidate {
	if !m.cand.due() {
		return m.Mechanism.Candidates(cur, st, curVC, scr, buf)
	}
	start := time.Now()
	buf = m.Mechanism.Candidates(cur, st, curVC, scr, buf)
	m.cand.took(start)
	return buf
}

func (m *tracedMech) Advance(cur int32, port, vc int, st *routing.PacketState) {
	if !m.advance.due() {
		m.Mechanism.Advance(cur, port, vc, st)
		return
	}
	start := time.Now()
	m.Mechanism.Advance(cur, port, vc, st)
	m.advance.took(start)
}

func (m *tracedMech) Rebuild(nw *topo.Network) error {
	id := m.tr.begin("core.Rebuild", m.parent)
	defer m.tr.end(id)
	return m.Mechanism.Rebuild(nw)
}

// tracedPattern wraps the traffic pattern of one sim.Run.
type tracedPattern struct {
	traffic.Pattern
	dest sampler
}

func (p *tracedPattern) Dest(src int32, r *rng.Rand) int32 {
	if !p.dest.due() {
		return p.Pattern.Dest(src, r)
	}
	start := time.Now()
	d := p.Pattern.Dest(src, r)
	p.dest.took(start)
	return d
}

// runSim is the one place the benchmark calls sim.Run. Untraced it is a
// plain call; traced it puts a "sim.Run" span around it under parent, with
// the mechanism and pattern wrapped and a span around every checkpoint
// sink call. It returns the host seconds the call took.
func (t *tracer) runSim(parent int, point string, o sim.RunOptions) (*sim.Result, float64, error) {
	if t == nil {
		start := time.Now()
		res, err := sim.Run(o)
		return res, time.Since(start).Seconds(), err
	}
	id := t.begin("sim.Run "+point, parent)
	mech := &tracedMech{Mechanism: o.Mechanism, tr: t, parent: id}
	pat := &tracedPattern{Pattern: o.Pattern}
	o.Mechanism, o.Pattern = mech, pat
	if o.Checkpoint != nil && o.Checkpoint.Sink != nil {
		ck := *o.Checkpoint
		sink := ck.Sink
		ck.Sink = func(snap []byte) error {
			sid := t.begin("cache.PutCheckpoint", id)
			defer t.end(sid)
			return sink(snap)
		}
		o.Checkpoint = &ck
	}
	start := time.Now()
	res, err := sim.Run(o)
	secs := time.Since(start).Seconds()
	t.end(id)
	t.aggregate("core.Candidates", id, mech.cand)
	t.aggregate("core.Init", id, mech.init)
	t.aggregate("core.Advance", id, mech.advance)
	t.aggregate("traffic.Dest", id, pat.dest)
	return res, secs, err
}

// jobExecutor wraps an experiments.Executor so that every grid point the
// runner pool executes becomes one "job" span under parent. The pool calls
// it from several goroutines; begin and end lock.
func (t *tracer) jobExecutor(parent int, run experiments.Executor) experiments.Executor {
	if t == nil {
		return run
	}
	return func(spec *experiments.JobSpec) (*sim.Result, error) {
		id := t.begin("job", parent)
		defer t.end(id)
		return run(spec)
	}
}

// selfSeconds is a span's duration minus the part its children cover.
// Children of a sim.Run span never overlap each other in real time (one
// goroutine), and aggregate spans are estimates laid out from the parent's
// start, so the cover is the plain sum, capped at the duration.
func (t *tracer) selfSeconds(id int) float64 {
	d := t.spans[id].seconds()
	var cover float64
	for i := range t.spans {
		if t.spans[i].Parent == id {
			cover += t.spans[i].seconds()
		}
	}
	return d - min(cover, d)
}
