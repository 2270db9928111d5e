// Package metrics holds the arithmetic of the paper's Section 4 metrics
// that is not a plain ratio of the engine's counters — the Jain fairness
// index of server generated load and a mean — and the point type of the
// accepted-load time series of the Figure 10 experiment. The engine keeps
// that series as per-bucket phit counts and divides them into points once,
// when it assembles a Result.
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
