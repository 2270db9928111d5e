package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/topo"
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
	var shared map[faultList][]byte // read-only once the workers start
	if r.hashes() {
		shared = sharedFaults(specs)
	}
	holes = make([]*QuarantineError, len(specs))
	results, err = runJobs(r.Workers, len(specs), progress, func(i int) (*sim.Result, error) {
		var faults []byte
		if f := specs[i].Faults; len(f) > 0 {
			faults = shared[faultList{&f[0], len(f)}]
		}
		res, err := r.runSpec(&specs[i], faults)
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

// faultList identifies a non-empty fault slice by its first element and its
// length. JobSpec.Faults is read-only, so two specs whose lists have the
// same identity have the same fault section; equal edges in two arrays are
// two identities, and prefixes of one sequence differ by length.
type faultList struct {
	first *topo.Edge
	n     int
}

// sharedFaults encodes each fault list that two or more of specs share,
// once, before the workers start: the grid constructors give every
// mechanism, pattern and load of a fault set the same slice, and each of
// those specs would otherwise sort and print it again to hash. A list one
// spec uses maps to nil — its worker encodes it, so a grid of distinct
// lists does no sequential encoding up front.
func sharedFaults(specs []JobSpec) map[faultList][]byte {
	texts := make(map[faultList][]byte)
	for i := range specs {
		f := specs[i].Faults
		if len(f) == 0 {
			continue
		}
		id := faultList{&f[0], len(f)}
		if text, seen := texts[id]; !seen {
			texts[id] = nil
		} else if text == nil {
			texts[id] = appendFaults(nil, f)
		}
	}
	return texts
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
