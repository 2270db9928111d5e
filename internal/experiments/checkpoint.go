package experiments

import (
	"errors"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
)

// CheckpointPolicy configures mid-run checkpointing of spec runs. Either
// trigger at or below zero is disabled; with both disabled only a raised
// Runner.Drain ever ships a snapshot.
type CheckpointPolicy struct {
	// Every ships a snapshot when this much wall-clock time has passed
	// since the last one — the production trigger, sized against how much
	// work a preemption may throw away.
	Every time.Duration
	// EveryCycles ships on a simulated-cycle interval instead; used by
	// tests and the crash harness, where wall-clock timing is flaky.
	EveryCycles int64
}

// snapshots resolves where r's local runs persist their snapshots: the
// dedicated store when one is set, else the result cache.
func (r Runner) snapshots() *cache.Store {
	if r.Snapshots != nil {
		return r.Snapshots
	}
	return r.Cache
}

// checkpointThrough builds the sim checkpoint options for one spec run:
// r's policy triggers, r's drain flag as the interrupt, and the given
// resume/sink transport. The sink is wrapped best-effort — a failing
// checkpoint write must never fail the simulation it is trying to protect.
// sim.Run calls it off its cycle loop, so a store write or a frame send
// overlaps the simulation; the calls come one at a time, in capture order,
// and the last has returned when sim.Run does, so a caller may drop the
// checkpoint or send its result right after.
func (r Runner) checkpointThrough(specHash string, resume []byte, sink func([]byte) error) *sim.CheckpointOptions {
	ck := &sim.CheckpointOptions{
		SpecHash:  specHash,
		Resume:    resume,
		Interrupt: r.Drain,
	}
	if sink != nil {
		ck.Sink = func(snap []byte) error {
			_ = sink(snap)
			return nil
		}
	}
	if pol := r.Checkpoint; pol != nil {
		ck.Every, ck.EveryCycles = pol.Every, pol.EveryCycles
	}
	return ck
}

// runLocal executes the spec in this process. With a checkpoint policy and
// somewhere to keep snapshots, the run resumes from any stored checkpoint
// for this spec, ships periodic snapshots into the store, and drops the
// checkpoint once it finishes — otherwise it is a plain uninterrupted run:
// runVia with no resume and no sink, which ships nothing.
// key is the spec's hash when the run checkpoints (runSpec computed it).
func (r Runner) runLocal(s *JobSpec, key string) (*sim.Result, error) {
	store := r.snapshots()
	if r.Checkpoint == nil || store == nil {
		return r.runVia(s, key, nil, nil)
	}
	resume, _ := store.GetCheckpoint(key)
	res, err := r.runVia(s, key, resume, func(snap []byte) error {
		return store.PutCheckpoint(key, snap)
	})
	if err == nil {
		// Terminal result reached: the checkpoint is dead weight.
		_ = store.RemoveCheckpoint(key)
	}
	return res, err
}

// runVia runs the spec locally with the given checkpoint transport. A
// resume snapshot that fails validation — torn file, foreign spec, stale
// engine — is discarded and the run restarts from zero: a broken
// checkpoint may cost the progress it claimed to hold, never correctness.
func (r Runner) runVia(s *JobSpec, specHash string, resume []byte, sink func([]byte) error) (*sim.Result, error) {
	for {
		o, err := s.buildRun(r) // a fresh network each time: a bad resume may have replayed faults
		if err != nil {
			return nil, err
		}
		o.Checkpoint = r.checkpointThrough(specHash, resume, sink)
		res, err := sim.Run(o)
		if !errors.Is(err, sim.ErrBadSnapshot) || len(resume) == 0 {
			return res, err
		}
		if store := r.snapshots(); store != nil {
			_ = store.RemoveCheckpoint(specHash)
		}
		resume = nil
	}
}

// RunSpecVia is the transport form of RunSpec: the result cache first, then
// always a local run that resumes from resume (nil means from zero) and
// ships periodic snapshots — plus the final drain snapshot — through sink
// instead of a snapshot store. The work-queue worker uses it to stream
// snapshots to its server. sink runs on a goroutine of the run's, one call
// at a time and in capture order, and never after RunSpecVia returns, so
// every snapshot frame goes out before the job's result frame. A torn or
// mismatched resume snapshot is discarded and the run restarts from zero;
// a raised r.Drain surfaces as sim.ErrCheckpointed after the final
// snapshot reached the sink.
func (r Runner) RunSpecVia(spec *JobSpec, resume []byte, sink func([]byte) error) (*sim.Result, error) {
	return r.cached(spec, spec.Hash(), func(s *JobSpec, key string) (*sim.Result, error) {
		return r.runVia(s, key, resume, sink)
	})
}
