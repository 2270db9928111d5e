package queue

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// pending is one submitted job waiting for a worker result. ckpt holds
// the latest snapshot a worker shipped for it; when a worker dies (or
// drains) mid-job, the requeued job carries the snapshot to its next
// worker, which resumes instead of restarting. fence is the dispatch
// token: each hand-out increments it, and only frames echoing the
// current token count, so a revoked worker finishing late cannot race
// the re-dispatch; deadline is the lease of that hand-out, which
// checkpoint frames renew. attempts is the job's custody history — the
// evidence a quarantine reports.
//
// Custody is exclusive, which is why the fields below done need no lock:
// Execute owns a pending until it sends it into Server.jobs, the session
// that receives it owns it from there and either finishes it or sends it
// back into Server.jobs for the next one. Every hand-over is a channel
// operation, so each owner sees what the last one wrote, and no pending
// is finished twice.
type pending struct {
	id   int64
	key  string // spec hash; "" when the server has no store (no durability)
	spec *experiments.JobSpec
	done chan outcome

	ckpt     []byte // the latest engine snapshot, as the worker's Sink shipped it; nil for none
	fence    int64
	deadline time.Time
	attempts []experiments.QuarantineAttempt
}

// Queue constants. Heartbeats prove the link; checkpoint frames prove
// progress and renew the job's lease. The lease is one fixed term whatever
// the job's size: the hello-ack names it, and a worker ships a ckpt frame
// at least every half lease, so a long run is never revoked for being
// long — only for making no progress.
const (
	defaultPoisonAttempts = 3 // distinct workers a job may take down before quarantine
	defaultHeartbeat      = 2 * time.Second
	heartbeatMissFactor   = 4 // silent for this many intervals => dead
	defaultLease          = 2 * time.Minute
	defaultCloseGrace     = time.Second
)

// ServeOpts hardens a server beyond the in-memory default.
type ServeOpts struct {
	// Store, when set, makes the grid durable: the server journals
	// attempts and quarantines through the store (fsynced) and persists
	// the latest checkpoint per in-flight job, so a killed-and-restarted
	// serve process resumes the same grid. Nil disables durability (the
	// in-memory behaviour of Serve).
	Store *cache.Store

	// The seams below are unexported: this package's tests compress them,
	// nothing outside can set them, and 0 means the default.
	poisonAttempts int           // quarantine threshold in distinct workers lost
	heartbeat      time.Duration // interval workers are asked to beat at
	lease          time.Duration // how long a job is held without a ckpt frame
	closeGrace     time.Duration // bound on each session's last write once the server closes
}

// Server accepts worker connections and dispatches submitted specs to
// their free slots. Execute is safe for concurrent use; the experiment
// runner's grid pool provides the submission concurrency.
type Server struct {
	ln      net.Listener
	opts    ServeOpts
	jobs    chan *pending
	closed  chan struct{}
	abrupt  atomic.Bool    // suppress the bye frame (test hook: simulated crash)
	journal *cache.Journal // nil without a store

	// Journal replay state: what the predecessor process knew.
	jmu              sync.Mutex
	attemptsByKey    map[string][]experiments.QuarantineAttempt
	quarantinedByKey map[string][]experiments.QuarantineAttempt

	drained       atomic.Int64 // workers that announced a graceful drain before leaving
	crashed       atomic.Int64 // workers that vanished without a word
	ckpts         atomic.Int64 // checkpoint frames received across all workers
	requeues      atomic.Int64 // jobs re-dispatched after a failed custody
	persistFails  atomic.Int64 // journal appends / checkpoint persists that failed
	leasesRevoked atomic.Int64 // jobs reclaimed from stuck workers
	zombies       atomic.Int64 // late fenced-off result frames dropped
	corrupt       atomic.Int64 // unparseable or checksum-failed frames
	quarantines   atomic.Int64 // jobs pulled from circulation as poison
	seq           atomic.Int64 // last job id handed out
	wg            sync.WaitGroup
}

// Serve starts an in-memory work-queue server listening on addr (e.g.
// ":7031" or "127.0.0.1:0"). Jobs submitted before any worker connects
// simply wait. For a durable server, see ServeWith.
//
//hx:allow unusedexport frozen bench/ calls it; deleted with the shims by ROADMAP 1(b)
func Serve(addr string) (*Server, error) {
	return ServeWith(addr, ServeOpts{})
}

// ServeWith starts a work-queue server with the given hardening options.
// With a Store it opens (or replays) the grid journal before accepting
// workers, so a restarted server begins with its predecessor's attempt
// and quarantine history.
func ServeWith(addr string, opts ServeOpts) (*Server, error) {
	if opts.poisonAttempts <= 0 {
		opts.poisonAttempts = defaultPoisonAttempts
	}
	if opts.heartbeat <= 0 {
		opts.heartbeat = defaultHeartbeat
	}
	if opts.lease <= 0 {
		opts.lease = defaultLease
	}
	if opts.closeGrace <= 0 {
		opts.closeGrace = defaultCloseGrace
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("queue: %w", err)
	}
	s := &Server{
		ln:   ln,
		opts: opts,
		// Execute callers block in the channel send, which is the
		// back-pressure; the buffer is room for sessions to hand jobs back.
		// Live pendings number at most the serve-side grid pool, so below
		// -workers 1024 a hand-back finds room; requeue covers the rest.
		jobs:             make(chan *pending, 1024),
		closed:           make(chan struct{}),
		attemptsByKey:    make(map[string][]experiments.QuarantineAttempt),
		quarantinedByKey: make(map[string][]experiments.QuarantineAttempt),
	}
	if opts.Store != nil {
		journal, recs, err := opts.Store.OpenJournal()
		if err != nil {
			ln.Close()
			return nil, err
		}
		s.journal = journal
		for _, rec := range recs {
			switch rec.Op {
			case cache.JournalAttempt:
				s.attemptsByKey[rec.Key] = append(s.attemptsByKey[rec.Key],
					experiments.QuarantineAttempt{Worker: rec.Worker, Fate: rec.Fate})
			case cache.JournalQuarantine:
				s.quarantinedByKey[rec.Key] = s.attemptsByKey[rec.Key]
			}
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats is a snapshot of the server's fault accounting.
type Stats struct {
	// Drained and Crashed count worker sessions by how they ended:
	// announced (SIGTERM drain: final checkpoint shipped, then a
	// worker-side bye) versus vanished (SIGKILL, OOM, network). Sessions
	// ended by the server's own shutdown count as neither.
	Drained, Crashed int64
	// CheckpointFrames counts snapshots received across all workers — for
	// judging whether the checkpoint interval matches the preemption rate.
	CheckpointFrames int64
	// Requeues counts job re-dispatches after a failed custody.
	Requeues int64
	// LeasesRevoked counts jobs reclaimed from silent or stuck workers.
	LeasesRevoked int64
	// ZombiesDropped counts late result/ckpt frames fenced off after
	// their dispatch was superseded.
	ZombiesDropped int64
	// CorruptFrames counts unparseable or checksum-failed frames; each
	// one severed its connection and requeued the jobs it held.
	CorruptFrames int64
	// Quarantined counts jobs pulled from circulation as poison.
	Quarantined int64
	// PersistFailures counts journal appends and checkpoint persists
	// that failed — durability shortfalls, not result errors.
	PersistFailures int64
}

// Stats returns the server's current fault accounting.
func (s *Server) Stats() Stats {
	return Stats{
		Drained:          s.drained.Load(),
		Crashed:          s.crashed.Load(),
		CheckpointFrames: s.ckpts.Load(),
		Requeues:         s.requeues.Load(),
		LeasesRevoked:    s.leasesRevoked.Load(),
		ZombiesDropped:   s.zombies.Load(),
		CorruptFrames:    s.corrupt.Load(),
		Quarantined:      s.quarantines.Load(),
		PersistFailures:  s.persistFails.Load(),
	}
}

// Summary renders the stats as the one-line end-of-grid report.
func (st Stats) Summary() string {
	return fmt.Sprintf("workers %d drained / %d crashed; jobs %d requeued, %d quarantined; "+
		"leases %d revoked; frames %d ckpt, %d corrupt, %d zombie; %d persist failures",
		st.Drained, st.Crashed, st.Requeues, st.Quarantined,
		st.LeasesRevoked, st.CheckpointFrames, st.CorruptFrames, st.ZombiesDropped,
		st.PersistFailures)
}

// Close stops accepting workers and tears down the listener, sending each
// connected worker a bye frame so it exits cleanly instead of treating
// the hangup as a fault. Pending Execute calls receive an error.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.ln.Close()
	s.wg.Wait()
	if s.journal != nil {
		_ = s.journal.Close()
	}
	return err
}

// closeAbrupt kills the server without the bye handshake — the wire
// behaviour of a crashed or SIGKILLed serve process. Tests use it to
// exercise the worker's reconnect path; production shutdown is Close.
func (s *Server) closeAbrupt() error {
	s.abrupt.Store(true)
	return s.Close()
}

// journalAppend writes one record if the server is durable; a failed
// append is a durability shortfall counted in the stats, never a run
// error (the journal is a recovery accelerator, not the result channel).
func (s *Server) journalAppend(rec cache.JournalRecord) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.persistFails.Add(1)
	}
}

// finish ends p's life with its outcome; the caller holds its custody. A
// successful result on a durable grid drops the now-dead checkpoint before
// the delivery, so a caller looking at the store right after Execute
// returns finds it gone. (The completion itself needs no record: the
// runner's cache probe serves the .res entry on a restart.) A pending
// still alive when the server closes is never finished: Close itself
// answers its Execute.
func (s *Server) finish(p *pending, out outcome) {
	if out.err == nil && p.key != "" {
		_ = s.opts.Store.RemoveCheckpoint(p.key)
	}
	p.done <- out // buffered, and sent at most once per pending: never blocks
}

// requeue hands the job back for the next free slot of any session.
func (s *Server) requeue(p *pending) {
	s.requeues.Add(1)
	select {
	case s.jobs <- p:
	default:
		// Full of Execute's submissions (a grid pool of 1024 or more). A
		// session must not wait here: sessions are what empties the
		// channel, and if all waited at once nobody would. Park the
		// hand-back on a goroutine of its own.
		go func() {
			select {
			case s.jobs <- p:
			case <-s.closed:
			}
		}()
	}
}

// requeueOrQuarantine charges the failed custody to the job and either
// re-dispatches it or — once it has cost poisonAttempts distinct workers
// — quarantines it with the full attempt history. Distinct, not total:
// one flaky worker dying on the same job over and over indicts the
// worker, not the job. A quarantine is tallied, then journalled, then
// delivered, so whoever receives the hole finds both already there.
func (s *Server) requeueOrQuarantine(p *pending, worker, fate string) {
	attempt := experiments.QuarantineAttempt{Worker: worker, Fate: fate}
	p.attempts = append(p.attempts, attempt)
	if p.key != "" {
		s.jmu.Lock()
		s.attemptsByKey[p.key] = append(s.attemptsByKey[p.key], attempt)
		s.jmu.Unlock()
		s.journalAppend(cache.JournalRecord{Op: cache.JournalAttempt, Key: p.key, Worker: worker, Fate: fate})
	}
	distinct := make(map[string]bool, len(p.attempts))
	for _, a := range p.attempts {
		distinct[a.Worker] = true
	}
	if len(distinct) < s.opts.poisonAttempts {
		s.requeue(p)
		return
	}
	history := append([]experiments.QuarantineAttempt(nil), p.attempts...)
	s.quarantines.Add(1)
	if p.key != "" {
		s.jmu.Lock()
		s.quarantinedByKey[p.key] = history
		s.jmu.Unlock()
		s.journalAppend(cache.JournalRecord{Op: cache.JournalQuarantine, Key: p.key})
	}
	s.finish(p, outcome{err: &experiments.QuarantineError{Label: p.spec.String(), Attempts: history}})
}

// Execute ships one spec to a worker slot and blocks until its result (or
// the deterministic job error) comes back: the experiments.Executor of
// distributed runs. On a durable server it first consults the replayed
// journal — a spec the predecessor quarantined is refused immediately
// (same QuarantineError, no fresh workers harmed) — and preloads the
// persisted checkpoint so the first dispatch resumes mid-run work.
func (s *Server) Execute(spec *experiments.JobSpec) (*sim.Result, error) {
	p := &pending{id: s.seq.Add(1), spec: spec, done: make(chan outcome, 1)}
	if s.opts.Store != nil {
		p.key = spec.Hash()
		s.jmu.Lock()
		if att, ok := s.quarantinedByKey[p.key]; ok {
			s.jmu.Unlock()
			s.quarantines.Add(1)
			return nil, &experiments.QuarantineError{Label: spec.String(),
				Attempts: append([]experiments.QuarantineAttempt(nil), att...)}
		}
		p.attempts = append(p.attempts, s.attemptsByKey[p.key]...)
		s.jmu.Unlock()
		// Preloaded as stored: only sim reads the form. A damaged file
		// costs the worker it reaches a refused resume and a run from
		// zero, whose first ckpt frame — due within half a lease —
		// overwrites it; accepted, since the result bytes do not change.
		p.ckpt, _ = s.opts.Store.GetCheckpoint(p.key)
	}
	select {
	case s.jobs <- p:
	case <-s.closed:
		return nil, fmt.Errorf("queue: server closed")
	}
	select {
	case out := <-p.done:
		return out.res, out.err
	case <-s.closed:
		return nil, fmt.Errorf("queue: server closed with job in flight")
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveWorker(conn)
	}
}
