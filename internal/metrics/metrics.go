// Package metrics implements the three performance metrics of the paper's
// Section 4 — average accepted throughput, average message latency and the
// Jain fairness index of server generated load — plus the time-series and
// completion-time bookkeeping used by the Figure 10 experiment.
package metrics

// JainInt returns the Jain fairness index (sum x)^2 / (n * sum x^2) of the
// per-server loads, counted in phits generated per server. It is 1.0 for
// perfect equity and 1/n when a single server generates everything. An
// all-zero (or empty) vector returns 1.0 by convention: no server is being
// treated unfairly.
func JainInt(xs []int64) float64 {
	if len(xs) == 0 {
		return 1.0
	}
	var sum, sumSq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sumSq += f * f
	}
	if sumSq == 0 {
		return 1.0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// SeriesPoint is one bucket of a throughput time series: the accepted load
// measured over the bucket ending at Cycle.
type SeriesPoint struct {
	Cycle    int64
	Accepted float64
}

// ThroughputSeries buckets delivered phits into fixed windows and reports
// per-window accepted load, the presentation of the paper's Figure 10.
type ThroughputSeries struct {
	bucket    int64 // cycles per bucket
	servers   int64
	points    []SeriesPoint
	cur       int64 // phits delivered in the open bucket
	curBucket int64 // index of the open bucket
}

// NewThroughputSeries creates a series with the given bucket width in
// cycles, normalizing by the server count (accepted load is
// phits/server/cycle).
func NewThroughputSeries(bucketCycles int64, servers int) *ThroughputSeries {
	if bucketCycles < 1 {
		bucketCycles = 1
	}
	return &ThroughputSeries{bucket: bucketCycles, servers: int64(servers)}
}

// Record notes phits delivered at the given cycle.
func (s *ThroughputSeries) Record(cycle, phits int64) {
	b := cycle / s.bucket
	for s.curBucket < b {
		s.flush()
	}
	s.cur += phits
}

// flush closes the open bucket.
func (s *ThroughputSeries) flush() {
	s.points = append(s.points, SeriesPoint{
		Cycle:    (s.curBucket + 1) * s.bucket,
		Accepted: float64(s.cur) / float64(s.bucket*s.servers),
	})
	s.cur = 0
	s.curBucket++
}

// Points closes the open bucket and returns the full series.
func (s *ThroughputSeries) Points() []SeriesPoint {
	if s.cur > 0 {
		s.flush()
	}
	return s.points
}

// SeriesState is the complete serializable state of a ThroughputSeries:
// configuration, closed buckets and the open bucket's accumulator. It
// exists so a mid-run engine checkpoint can capture a series exactly —
// Points() is not enough, since it flushes (mutates) the open bucket.
type SeriesState struct {
	Bucket    int64
	Servers   int64
	Cur       int64
	CurBucket int64
	Points    []SeriesPoint
}

// State captures the series without mutating it (unlike Points).
func (s *ThroughputSeries) State() SeriesState {
	return SeriesState{
		Bucket:    s.bucket,
		Servers:   s.servers,
		Cur:       s.cur,
		CurBucket: s.curBucket,
		Points:    append([]SeriesPoint(nil), s.points...),
	}
}

// RestoreThroughputSeries rebuilds a series from a captured state; the
// result continues recording exactly where the original left off.
func RestoreThroughputSeries(st SeriesState) *ThroughputSeries {
	bucket := st.Bucket
	if bucket < 1 {
		bucket = 1
	}
	return &ThroughputSeries{
		bucket:    bucket,
		servers:   st.Servers,
		points:    append([]SeriesPoint(nil), st.Points...),
		cur:       st.Cur,
		curBucket: st.CurBucket,
	}
}
