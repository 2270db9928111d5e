package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Job quarantine: the runner's answer to poison jobs. A distributed
// backend that watches a spec take down worker after worker must at some
// point stop re-queueing it — the spec is presumed to crash whatever runs
// it — and resolve it with a QuarantineError instead, carrying the full
// attempt history as evidence. The rest of the grid completes; callers
// that can degrade gracefully (ExecuteJobsPartial, the load sweep's Rows)
// turn the quarantine into an explicit hole, and callers that cannot fail
// with an error that names every worker the job consumed.

// ErrQuarantined marks a job pulled from circulation after exhausting its
// attempt budget; match with errors.Is. The concrete *QuarantineError
// (errors.As) carries the attempt history.
var ErrQuarantined = errors.New("job quarantined")

// QuarantineAttempt is one failed custody of a quarantined job: which
// worker held it and how the attempt ended.
type QuarantineAttempt struct {
	// Worker identifies the worker that held the job (the identity it
	// announced at its handshake, falling back to its remote address).
	Worker string
	// Fate is how the attempt ended: "worker-lost" (the connection died
	// with the job in flight — the worker crashed or the job killed it)
	// or "lease-revoked" (the worker went silent or stuck past the job's
	// lease deadline).
	Fate string
}

// QuarantineError resolves a job that was quarantined instead of
// re-queued. It unwraps to ErrQuarantined and renders its full attempt
// history, so a grid-end report shows exactly which workers the job took
// down before it was pulled.
type QuarantineError struct {
	// Label names the job (JobSpec.String()).
	Label string
	// Attempts is the job's custody history, oldest first.
	Attempts []QuarantineAttempt
}

func (e *QuarantineError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s after %d attempts", ErrQuarantined, len(e.Attempts))
	if len(e.Attempts) > 0 {
		b.WriteString(" [")
		for i, a := range e.Attempts {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s: %s", a.Worker, a.Fate)
		}
		b.WriteString("]")
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrQuarantined) match.
func (e *QuarantineError) Unwrap() error { return ErrQuarantined }

// ExecuteJobsPartial runs an enumerated grid of specs on r's worker pool
// with graceful degradation: a job the backend quarantined becomes a nil
// result plus its QuarantineError in the holes slice (indexed like specs)
// instead of failing the grid. Every other error still fails the call —
// holes comes back alongside it, so a strict caller can report both — and
// non-quarantined results remain bit-identical to a fully healthy run: a
// partial grid is the healthy grid with holes, never a different grid.
// progress, when non-nil, observes the grid (see Run).
func (r Runner) ExecuteJobsPartial(progress func(done, total int), specs []JobSpec) (results []*sim.Result, holes []*QuarantineError, err error) {
	r = r.forGrid(len(specs))
	holes = make([]*QuarantineError, len(specs))
	results, err = runJobs(r.Workers, len(specs), progress, func(i int) (*sim.Result, error) {
		res, err := r.RunSpec(&specs[i])
		if err != nil {
			var q *QuarantineError
			if errors.As(err, &q) {
				holes[i] = q // each index written by exactly one worker
				return nil, nil
			}
			return nil, fmt.Errorf("%s: %w", specs[i].label(), err)
		}
		return res, nil
	})
	return results, holes, err
}

// holeErrors is the strict reading of a partial grid's holes: nil when it
// has none, else every hole as an error labelled with its job, joined in job
// order.
func holeErrors(specs []JobSpec, holes []*QuarantineError) error {
	var errs []error
	for i, q := range holes {
		if q != nil {
			errs = append(errs, fmt.Errorf("%s: %w", specs[i].label(), q))
		}
	}
	return errors.Join(errs...)
}
