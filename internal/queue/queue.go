// Package queue distributes experiment job specs to worker processes over
// a line-delimited JSON protocol, so paper-scale grids shard across
// machines. The server side plugs into the experiment runner as its
// executor (experiments.SetExecutor(server.Execute)): drivers enumerate
// grids exactly as for local runs, each spec travels to an idle worker
// slot, and the runner reassembles results in enumeration order — the
// output is bit-identical to local execution because a spec carries every
// semantic input (including its derived seed) and results travel in the
// stable sim binary codec.
//
// Protocol (one JSON object per line, both directions):
//
//	worker -> server  {"type":"hello","slots":N,"engine":"<version>","name":"w123-1","ckptCap":true,"hbCap":true}
//	server -> worker  {"type":"hello-ack","engine":"<version>","bye":true,"ckptCap":true,"hb":2000}
//	server -> worker  {"type":"job","id":7,"fence":1,"spec":{...},"ckpt":"<base64>"}  (up to N outstanding; ckpt optional)
//	worker -> server  {"type":"ckpt","id":7,"fence":1,"ckpt":"<base64>"}  (periodic snapshot, gzip+base64)
//	worker -> server  {"type":"result","id":7,"fence":1,"result":"<base64>","sum":"<hex sha256>"}
//	worker -> server  {"type":"result","id":7,"fence":1,"error":"..."}    (job failed)
//	worker -> server  {"type":"hb"}                             (heartbeat, at the hello-ack's interval)
//	worker -> server  {"type":"bye"}                            (graceful drain announcement)
//	server -> worker  {"type":"bye"}                            (graceful shutdown)
//
// The version both sides advertise is sim.EngineVersion. A worker whose
// engine version differs is rejected at the handshake — mixed engines
// would merge semantically divergent rows.
// A job error is final (it is deterministic) and propagates to the
// caller; every transport fault instead re-dispatches the job, so the
// merged grid stays bit-identical to an undisturbed local run.
//
// The hello-ack is the capability negotiation: it advertises that this
// server ends runs with a "bye" frame, accepts checkpoint streams, and —
// when the worker offered hbCap — names the heartbeat interval the worker
// must keep. Pre-ack workers ignore the unknown frames; a modern worker
// that never saw an ack knows it is talking to a legacy pre-bye server,
// whose normal end of run is a bare hangup.
//
// Failure model. The queue tolerates, without changing a single output
// byte:
//
//   - Worker crash (SIGKILL, OOM, network loss): the dropped connection
//     requeues every job the worker owed, each carrying its latest
//     checkpoint snapshot, so the next worker resumes instead of
//     restarting. Cost: at most one checkpoint interval per job.
//   - Worker hang (stuck job, livelocked host): each dispatched job holds
//     a lease sized from its spec's cycle budget; checkpoint frames renew
//     it, heartbeats do not (a beating heart proves the link, not
//     progress). An expired lease frees the slot and re-dispatches the
//     job elsewhere. A worker that stops sending frames entirely for
//     several heartbeat intervals has its connection severed, which
//     requeues everything it held.
//   - Zombie results: every dispatch carries a fencing token; a result or
//     checkpoint frame whose token does not match the current dispatch
//     (a revoked worker finishing late) is counted and dropped.
//   - Corrupt frames: results carry a SHA-256 of their payload; a frame
//     that fails the checksum, its encoding, or its codec is a transport
//     fault — the link is severed and the jobs re-dispatched — never a
//     job verdict.
//   - Poison jobs: a job whose attempts cost too many distinct workers
//     their lives is quarantined with its full attempt history
//     (experiments.QuarantineError) instead of re-queued; the rest of the
//     grid completes and renders the point as an explicit hole.
//   - Server kill/restart: a server given a cache store journals grid
//     enumeration, attempts, quarantines and completions (fsynced,
//     append-only) and persists the latest checkpoint per in-flight job.
//     A restarted server replays the journal: completed points come back
//     from the result cache, in-flight points resume from their persisted
//     snapshots, and quarantined specs stay quarantined without killing
//     fresh workers. Workers ride out the restart on their reconnect
//     schedule (capped exponential backoff with seeded jitter).
//
// A draining worker (SIGTERM) stops each slot at its next inter-cycle
// point, ships a final snapshot, announces the drain with a worker-side
// "bye", and hangs up; the server counts it as drained rather than
// crashed and the handed-back jobs carry no blame toward quarantine.
package queue

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/sim"
)

// message is the single wire frame of the protocol; Type selects which
// fields are meaningful.
type message struct {
	Type    string          `json:"type"`
	Slots   int             `json:"slots,omitempty"`
	Engine  string          `json:"engine,omitempty"`
	Name    string          `json:"name,omitempty"`    // hello: worker identity for attempt accounting
	Bye     bool            `json:"bye,omitempty"`     // hello-ack: server ends runs with a bye frame
	CkptCap bool            `json:"ckptCap,omitempty"` // hello / hello-ack: mid-run checkpoint support
	HBCap   bool            `json:"hbCap,omitempty"`   // hello: worker can keep a heartbeat
	HB      int64           `json:"hb,omitempty"`      // hello-ack: heartbeat interval, milliseconds
	ID      int64           `json:"id,omitempty"`
	Fence   int64           `json:"fence,omitempty"` // job: dispatch token; echoed on ckpt/result
	Spec    json.RawMessage `json:"spec,omitempty"`
	Ckpt    string          `json:"ckpt,omitempty"` // ckpt frame / job resume: base64 gzip engine snapshot
	Result  string          `json:"result,omitempty"`
	Sum     string          `json:"sum,omitempty"` // result: hex SHA-256 of the raw result bytes
	Error   string          `json:"error,omitempty"`
}

// outcome is what a pending job resolves to.
type outcome struct {
	res *sim.Result
	err error
}

// pending is one submitted job waiting for a worker result. ckpt holds
// the latest snapshot a worker shipped for it; when a worker dies (or
// drains) mid-job, the requeued job carries the snapshot to its next
// worker, which resumes instead of restarting. fence is the dispatch
// token: each hand-out increments it, and only frames echoing the
// current token count, so a revoked worker finishing late cannot race
// the re-dispatch. attempts is the job's custody history — the evidence
// a quarantine reports.
type pending struct {
	id   int64
	key  string // spec hash; "" when the server has no store (no durability)
	spec *experiments.JobSpec
	done chan outcome

	mu       sync.Mutex
	ckpt     string // base64 gzip of the latest engine snapshot, "" for none
	fence    int64
	attempts []experiments.QuarantineAttempt
	resolved bool
}

// setCkpt records the latest snapshot payload for the job.
func (p *pending) setCkpt(payload string) {
	p.mu.Lock()
	p.ckpt = payload
	p.mu.Unlock()
}

// takeCkpt returns the latest snapshot payload for the job.
func (p *pending) takeCkpt() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ckpt
}

// nextFence mints the dispatch token for a new hand-out of the job.
func (p *pending) nextFence() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fence++
	return p.fence
}

// recordAttempt appends one failed custody to the job's history and
// returns a copy of the full history.
func (p *pending) recordAttempt(worker, fate string) []experiments.QuarantineAttempt {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempts = append(p.attempts, experiments.QuarantineAttempt{Worker: worker, Fate: fate})
	return append([]experiments.QuarantineAttempt(nil), p.attempts...)
}

// distinctWorkers counts how many different workers the job has cost —
// the quarantine criterion. Distinct, not total: one flaky worker dying
// on the same job over and over indicts the worker, not the job.
func (p *pending) distinctWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := make(map[string]bool, len(p.attempts))
	for _, a := range p.attempts {
		seen[a.Worker] = true
	}
	return len(seen)
}

// resolve delivers the job's outcome exactly once; later calls (a zombie
// result racing a lease revocation, a requeue racing shutdown) report
// false and deliver nothing.
func (p *pending) resolve(out outcome) bool {
	p.mu.Lock()
	if p.resolved {
		p.mu.Unlock()
		return false
	}
	p.resolved = true
	p.mu.Unlock()
	p.done <- out // buffered; never blocks
	return true
}

// DefaultPoisonAttempts is how many distinct workers a job may take down
// before it is quarantined instead of re-queued.
const DefaultPoisonAttempts = 3

// Liveness defaults. Heartbeats prove the link; checkpoint frames prove
// progress and renew the job's lease. Leases are sized from the spec's
// cycle budget so big jobs are not revoked for merely being big.
var (
	defaultHeartbeat     = 2 * time.Second
	heartbeatMissFactor  = int64(4) // silent for this many intervals => dead
	defaultLeaseBase     = 2 * time.Minute
	defaultLeasePerCycle = time.Millisecond
)

// ServeOpts hardens a server beyond the in-memory default.
type ServeOpts struct {
	// Store, when set, makes the grid durable: the server journals
	// enumeration/attempts/quarantines/completions through the store
	// (fsynced) and persists the latest checkpoint per in-flight job, so
	// a killed-and-restarted serve process resumes the same grid. Nil
	// disables durability (the in-memory behaviour of Serve).
	Store *cache.Store
	// PoisonAttempts is the quarantine threshold in distinct workers
	// lost; 0 means DefaultPoisonAttempts.
	PoisonAttempts int
	// Heartbeat is the interval workers are asked to beat at; 0 means
	// the default. A worker silent for heartbeatMissFactor intervals is
	// declared dead.
	Heartbeat time.Duration
	// LeaseBase and LeasePerCycle size job leases: base + cycles*per.
	// Zero means the defaults.
	LeaseBase     time.Duration
	LeasePerCycle time.Duration
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
	enumed           map[string]bool
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
	seq           struct {
		sync.Mutex
		next int64
	}
	wg sync.WaitGroup
}

// Serve starts an in-memory work-queue server listening on addr (e.g.
// ":7031" or "127.0.0.1:0"). Jobs submitted before any worker connects
// simply wait. For a durable server, see ServeWith.
func Serve(addr string) (*Server, error) {
	return ServeWith(addr, ServeOpts{})
}

// ServeWith starts a work-queue server with the given hardening options.
// With a Store it opens (or replays) the grid journal before accepting
// workers, so a restarted server begins with its predecessor's attempt
// and quarantine history.
func ServeWith(addr string, opts ServeOpts) (*Server, error) {
	if opts.PoisonAttempts <= 0 {
		opts.PoisonAttempts = DefaultPoisonAttempts
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = defaultHeartbeat
	}
	if opts.LeaseBase <= 0 {
		opts.LeaseBase = defaultLeaseBase
	}
	if opts.LeasePerCycle <= 0 {
		opts.LeasePerCycle = defaultLeasePerCycle
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("queue: %w", err)
	}
	s := &Server{
		ln:   ln,
		opts: opts,
		// The buffer only smooths requeueing on worker loss; Execute
		// callers block in the channel send, which is the back-pressure.
		jobs:             make(chan *pending, 1024),
		closed:           make(chan struct{}),
		enumed:           make(map[string]bool),
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
			case cache.JournalEnum:
				s.enumed[rec.Key] = true
			case cache.JournalAttempt:
				s.attemptsByKey[rec.Key] = append(s.attemptsByKey[rec.Key],
					experiments.QuarantineAttempt{Worker: rec.Worker, Fate: rec.Fate})
			case cache.JournalQuarantine:
				s.quarantinedByKey[rec.Key] = s.attemptsByKey[rec.Key]
			case cache.JournalDone:
				// Terminal results live in the store's .res entries; the
				// runner's cache probe serves them without re-dispatch.
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
	// announced (SIGTERM drain) versus vanished (SIGKILL, OOM, network).
	Drained, Crashed int64
	// CheckpointFrames counts snapshots received across all workers.
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

// WorkerExits reports how worker sessions have ended mid-run: drained is
// workers that announced a graceful shutdown (SIGTERM drain: final
// checkpoint shipped, then a worker-side bye), crashed is workers that
// vanished without one (SIGKILL, OOM, network loss). Sessions ended by
// the server's own shutdown count as neither.
func (s *Server) WorkerExits() (drained, crashed int64) {
	return s.drained.Load(), s.crashed.Load()
}

// CheckpointFrames reports how many checkpoint snapshots workers have
// shipped this run — an observability counter for judging whether the
// checkpoint interval matches the preemption rate.
func (s *Server) CheckpointFrames() int64 { return s.ckpts.Load() }

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

// finish resolves p exactly once. A successful result on a durable grid
// commits the completion to the journal and drops the now-dead
// checkpoint.
func (s *Server) finish(p *pending, out outcome) {
	if !p.resolve(out) {
		return
	}
	if out.err == nil && p.key != "" {
		s.journalAppend(cache.JournalRecord{Op: cache.JournalDone, Key: p.key})
		if s.opts.Store != nil {
			_ = s.opts.Store.RemoveCheckpoint(p.key)
		}
	}
}

// requeue puts the job back in circulation for the next free slot.
func (s *Server) requeue(p *pending) {
	s.requeues.Add(1)
	select {
	case s.jobs <- p:
	case <-s.closed:
		s.finish(p, outcome{err: fmt.Errorf("queue: server closed with job in flight")})
	}
}

// requeueOrQuarantine charges the failed custody to the job and either
// re-dispatches it or — once it has cost PoisonAttempts distinct workers
// — quarantines it with the full attempt history.
func (s *Server) requeueOrQuarantine(p *pending, worker, fate string) {
	history := p.recordAttempt(worker, fate)
	if p.key != "" {
		s.jmu.Lock()
		s.attemptsByKey[p.key] = append(s.attemptsByKey[p.key],
			experiments.QuarantineAttempt{Worker: worker, Fate: fate})
		s.jmu.Unlock()
		s.journalAppend(cache.JournalRecord{Op: cache.JournalAttempt, Key: p.key, Worker: worker, Fate: fate})
	}
	if p.distinctWorkers() >= s.opts.PoisonAttempts {
		if p.resolve(outcome{err: &experiments.QuarantineError{Label: p.spec.String(), Attempts: history}}) {
			s.quarantines.Add(1)
			if p.key != "" {
				s.jmu.Lock()
				s.quarantinedByKey[p.key] = history
				s.jmu.Unlock()
				s.journalAppend(cache.JournalRecord{Op: cache.JournalQuarantine, Key: p.key})
			}
		}
		return
	}
	s.requeue(p)
}

// leaseFor sizes a job's lease from its cycle budget: a worker holding
// the job must show progress (a checkpoint frame) before the lease runs
// out, or the job is re-dispatched. Specs without a bounded budget get a
// generous default.
func (s *Server) leaseFor(spec *experiments.JobSpec) time.Duration {
	cycles := spec.Budget.Warmup + spec.Budget.Measure
	if spec.MaxCycles > cycles {
		cycles = spec.MaxCycles
	}
	if cycles <= 0 {
		cycles = 1 << 20
	}
	return s.opts.LeaseBase + time.Duration(cycles)*s.opts.LeasePerCycle
}

// Execute ships one spec to a worker slot and blocks until its result (or
// the deterministic job error) comes back: the experiments.Executor of
// distributed runs. On a durable server it first consults the replayed
// journal — a spec the predecessor quarantined is refused immediately
// (same QuarantineError, no fresh workers harmed) — and preloads the
// persisted checkpoint so the first dispatch resumes mid-run work.
func (s *Server) Execute(spec *experiments.JobSpec) (*sim.Result, error) {
	s.seq.Lock()
	s.seq.next++
	p := &pending{id: s.seq.next, spec: spec, done: make(chan outcome, 1)}
	s.seq.Unlock()
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
		first := !s.enumed[p.key]
		s.enumed[p.key] = true
		s.jmu.Unlock()
		if first {
			s.journalAppend(cache.JournalRecord{Op: cache.JournalEnum, Key: p.key})
		}
		if snap, ok := s.opts.Store.GetCheckpoint(p.key); ok {
			if payload, err := encodeSnapshotPayload(snap); err == nil {
				p.setCkpt(payload)
			}
		}
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
		go func() {
			defer s.wg.Done()
			s.serveWorker(conn)
		}()
	}
}

// monitorTick picks the liveness sweep period: half the heartbeat,
// clamped so compressed test schedules still sweep and production ones
// do not spin.
func monitorTick(hb time.Duration) time.Duration {
	tick := hb / 2
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 500*time.Millisecond {
		tick = 500 * time.Millisecond
	}
	return tick
}

// serveWorker owns one worker connection: handshake, then one dispatcher
// goroutine per advertised slot, a reader that routes results back, and a
// liveness monitor enforcing heartbeats and job leases. On any connection
// error the in-flight jobs requeue for other workers; on server shutdown
// the worker gets a bye frame so it knows the run is over rather than
// lost.
func (s *Server) serveWorker(conn net.Conn) {
	defer conn.Close()
	var wmu sync.Mutex       // serializes writes from the slot goroutines
	var badWrite atomic.Bool // a frame write failed; stream may hold a partial frame
	// Tear the connection down on server close (after a best-effort bye)
	// so the reader unblocks and serveWorker can finish.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-s.closed:
			// First unblock any dispatcher stuck mid-write on a worker
			// that stopped reading — it holds wmu, so taking the lock
			// before breaking the write would deadlock the shutdown.
			_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
			if !s.abrupt.Load() {
				wmu.Lock()
				// Never append bye after a failed (possibly partial)
				// frame: the worker's line-oriented reader would see
				// garbage instead of a clean shutdown. A plain close is
				// the lesser signal but at least unambiguous.
				if !badWrite.Load() {
					_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
					_ = writeMessage(conn, &message{Type: "bye"})
				}
				wmu.Unlock()
			}
			conn.Close()
		case <-done:
		}
	}()
	r := bufio.NewReader(conn)
	var hello message
	if err := readMessage(r, &hello); err != nil || hello.Type != "hello" || hello.Slots < 1 {
		return
	}
	if hello.Engine != sim.EngineVersion {
		wmu.Lock()
		_ = writeMessage(conn, &message{Type: "error",
			Error: fmt.Sprintf("engine version %q, server runs %q", hello.Engine, sim.EngineVersion)})
		wmu.Unlock()
		return
	}
	workerCkpt := hello.CkptCap
	workerName := hello.Name
	if workerName == "" {
		workerName = conn.RemoteAddr().String()
	}
	// Capability negotiation: promise the bye frame, accept checkpoint
	// streams, and — if the worker can beat — name the heartbeat interval.
	// Sent before any job so a modern worker knows, for the whole session,
	// that a hangup without bye is a fault; legacy workers ignore the
	// unknown frames.
	hb := s.opts.Heartbeat
	workerHB := hello.HBCap && hb > 0
	ack := &message{Type: "hello-ack", Engine: sim.EngineVersion, Bye: true, CkptCap: true}
	if workerHB {
		ack.HB = int64(hb / time.Millisecond)
	}
	wmu.Lock()
	ackErr := writeMessage(conn, ack)
	wmu.Unlock()
	if ackErr != nil {
		return
	}

	type inflightEntry struct {
		p        *pending
		fence    int64
		deadline atomic.Int64 // UnixNano lease expiry; ckpt frames renew it
		freed    chan struct{}
	}
	// Ownership rule: whoever deletes an entry from inflight (while
	// present, under imu) owns closing its freed channel and resolving or
	// requeueing its pending — the reader on a fenced result, the monitor
	// on a revoked lease. The end-of-session sweep drains whatever is
	// left; its dispatchers exit via connDead, so it closes nothing.
	var imu sync.Mutex
	inflight := make(map[int64]*inflightEntry)
	connDead := make(chan struct{})
	var deadOnce sync.Once
	markDead := func() { deadOnce.Do(func() { close(connDead) }) }
	var lastFrame atomic.Int64
	lastFrame.Store(time.Now().UnixNano())

	// Reader: routes result frames to their pending jobs and frees slots,
	// records + persists checkpoint snapshots (which renew the job lease),
	// fences off zombie frames from superseded dispatches, and treats any
	// corruption — an unparseable line, a failed checksum — as a transport
	// fault that severs the link so everything requeues.
	var workerBye atomic.Bool
	go func() {
		defer markDead()
		for {
			var msg message
			if err := readMessage(r, &msg); err != nil {
				if !isEOF(err) {
					// Not a hangup: the stream delivered a line that is
					// not a frame. Everything after it is untrustworthy.
					s.corrupt.Add(1)
				}
				return
			}
			lastFrame.Store(time.Now().UnixNano())
			switch msg.Type {
			case "hb":
				// Liveness only: a beating heart proves the link, not
				// progress. Leases renew on checkpoint frames.
			case "ckpt":
				imu.Lock()
				e := inflight[msg.ID]
				imu.Unlock()
				if e == nil || (msg.Fence != 0 && msg.Fence != e.fence) {
					if msg.Ckpt != "" {
						s.zombies.Add(1)
					}
					continue
				}
				if msg.Ckpt == "" {
					continue
				}
				e.p.setCkpt(msg.Ckpt)
				s.ckpts.Add(1)
				e.deadline.Store(time.Now().Add(s.leaseFor(e.p.spec)).UnixNano())
				if s.opts.Store != nil && e.p.key != "" {
					if snap := decodeSnapshotPayload(msg.Ckpt); snap != nil {
						if err := s.opts.Store.PutCheckpoint(e.p.key, snap); err != nil {
							s.persistFails.Add(1)
						}
					} else {
						s.persistFails.Add(1)
					}
				}
			case "bye":
				workerBye.Store(true)
			case "result":
				out, ok := decodeOutcome(&msg)
				if !ok {
					// Corruption is a fault of the link, never a job
					// verdict: sever; the owed jobs (including this one,
					// still in inflight) requeue deterministically.
					s.corrupt.Add(1)
					return
				}
				imu.Lock()
				e := inflight[msg.ID]
				if e != nil && (msg.Fence == 0 || msg.Fence == e.fence) {
					delete(inflight, msg.ID)
				} else {
					e = nil
				}
				imu.Unlock()
				if e == nil {
					// A dispatch this frame does not match anymore: the
					// lease was revoked and the job re-dispatched. Drop
					// the late answer; the current custody decides.
					s.zombies.Add(1)
					continue
				}
				s.finish(e.p, out)
				close(e.freed)
			}
		}
	}()

	// Monitor: sweeps for missed heartbeats (sever the link: the worker
	// process is gone or wedged whole) and expired job leases (reclaim
	// just the job: the worker may be healthy but stuck on this one).
	go func() {
		tick := time.NewTicker(monitorTick(hb))
		defer tick.Stop()
		for {
			select {
			case <-connDead:
				return
			case <-s.closed:
				return
			case <-tick.C:
				now := time.Now()
				if workerHB && now.UnixNano()-lastFrame.Load() > int64(hb)*heartbeatMissFactor {
					conn.Close() // reader unblocks; exit tallies as crashed, jobs requeue
					return
				}
				imu.Lock()
				var expired []*inflightEntry
				for id, e := range inflight {
					if e.deadline.Load() <= now.UnixNano() {
						delete(inflight, id)
						expired = append(expired, e)
					}
				}
				imu.Unlock()
				for _, e := range expired {
					s.leasesRevoked.Add(1)
					close(e.freed) // free the slot; the fence blocks the stale custody
					s.requeueOrQuarantine(e.p, workerName, "lease-revoked")
				}
			}
		}
	}()

	// One dispatcher per advertised slot: pull a job, send it, block until
	// the reader (result) or monitor (revocation) frees the slot.
	var slotWG sync.WaitGroup
	for i := 0; i < hello.Slots; i++ {
		slotWG.Add(1)
		go func() {
			defer slotWG.Done()
			for {
				var p *pending
				select {
				case p = <-s.jobs:
				case <-connDead:
					return
				case <-s.closed:
					return
				}
				data, err := p.spec.EncodeJSON()
				if err != nil {
					s.finish(p, outcome{err: fmt.Errorf("queue: encode spec: %w", err)})
					continue
				}
				e := &inflightEntry{p: p, fence: p.nextFence(), freed: make(chan struct{})}
				e.deadline.Store(time.Now().Add(s.leaseFor(p.spec)).UnixNano())
				imu.Lock()
				inflight[p.id] = e
				imu.Unlock()
				job := &message{Type: "job", ID: p.id, Fence: e.fence, Spec: data}
				if workerCkpt {
					// Hand a requeued job its last snapshot so this worker
					// resumes where the lost one left off.
					job.Ckpt = p.takeCkpt()
				}
				wmu.Lock()
				err = writeMessage(conn, job)
				if err != nil {
					// Flagged under wmu so the shutdown goroutine (which
					// reads it under the same lock) cannot miss it.
					badWrite.Store(true)
				}
				wmu.Unlock()
				if err != nil {
					markDead()
					return
				}
				select {
				case <-e.freed:
				case <-connDead:
					return
				case <-s.closed:
					return
				}
			}
		}()
	}
	<-connDead
	conn.Close() // unblock any slot goroutine stuck in a write
	slotWG.Wait()
	// Re-dispatch everything this worker still owed (unless shutting
	// down). Each requeued pending keeps its latest checkpoint, so the
	// next worker resumes it. A drained worker hands its jobs back
	// blamelessly; a crashed one is charged an attempt on each, which is
	// what eventually quarantines a poison job.
	imu.Lock()
	owed := make([]*inflightEntry, 0, len(inflight))
	for _, e := range inflight {
		owed = append(owed, e)
	}
	clear(inflight)
	imu.Unlock()
	select {
	case <-s.closed: // server shutdown, not a worker exit
		for _, e := range owed {
			s.finish(e.p, outcome{err: fmt.Errorf("queue: server closed with job in flight")})
		}
		return
	default:
	}
	if workerBye.Load() {
		s.drained.Add(1)
		for _, e := range owed {
			s.requeue(e.p)
		}
	} else {
		s.crashed.Add(1)
		for _, e := range owed {
			s.requeueOrQuarantine(e.p, workerName, "worker-lost")
		}
	}
}

// decodeOutcome turns a result frame into the pending job's outcome.
// ok == false flags transport corruption — bad base64, a checksum
// mismatch, undecodable result bytes — which is a fault of the link,
// never a verdict on the job. Job errors carry only the worker marker;
// the submitting side (ExecuteJobs) prefixes the job label.
func decodeOutcome(msg *message) (outcome, bool) {
	if msg.Error != "" {
		return outcome{err: fmt.Errorf("on worker: %s", msg.Error)}, true
	}
	raw, err := base64.StdEncoding.DecodeString(msg.Result)
	if err != nil {
		return outcome{}, false
	}
	if msg.Sum != "" {
		sum := sha256.Sum256(raw)
		if hex.EncodeToString(sum[:]) != msg.Sum {
			return outcome{}, false
		}
	}
	res, err := sim.DecodeResult(raw)
	if err != nil {
		return outcome{}, false
	}
	return outcome{res: res}, true
}

// ErrRejected marks a handshake rejection (engine-version mismatch): the
// condition is permanent for this worker build, so WorkLoop gives up
// instead of retrying.
var ErrRejected = errors.New("queue: server rejected worker")

// Reconnect policy of WorkLoop: exponential backoff between connection
// attempts with seeded jitter, capped at reconnectMaxDelay, giving up
// after reconnectMaxDown consecutive attempts that never got a frame from
// the server. The schedule tolerates ~10 minutes of server downtime — a
// redeploy or host reboot, not just a blip — before a worker declares the
// run lost. When the last live session ended in a bare EOF with no job
// outstanding, the shorter idle schedule (~2 minutes) applies — and when
// that session also never saw a hello-ack (a pre-negotiation server,
// which will never send bye), the worker does not reconnect at all: a
// clean hangup is exactly that server's normal end of run.
// Variables (not constants) so tests can compress the schedule.
var (
	reconnectBaseDelay   = 100 * time.Millisecond
	reconnectMaxDelay    = 5 * time.Second
	reconnectMaxDown     = 120
	reconnectMaxDownIdle = 30
)

// backoffDelay computes the reconnect pause for the given attempt:
// exponential from reconnectBaseDelay plus deterministic jitter derived
// from the worker's seed, never exceeding reconnectMaxDelay. The jitter
// de-synchronizes a fleet whose server just restarted — without it every
// worker that died together retries together, forever.
func backoffDelay(attempt int, seed uint64) time.Duration {
	if attempt > 30 {
		attempt = 30 // past the cap anyway; keep the shift in range
	}
	d := reconnectBaseDelay << attempt
	if d <= 0 || d > reconnectMaxDelay {
		d = reconnectMaxDelay
	}
	jitter := time.Duration(rng.Mix64(seed+uint64(attempt)) % uint64(d/2+1))
	if d += jitter; d > reconnectMaxDelay {
		d = reconnectMaxDelay
	}
	return d
}

// workerSeq distinguishes worker identities minted in one process.
var workerSeq atomic.Int64

// workerIdentity derives a fleet-unique worker name without consulting
// the clock: pid plus a process-local counter. The name is the unit of
// poison-job accounting — one identity per worker lifetime, surviving
// reconnects, so a flaky link does not impersonate a parade of distinct
// victims.
func workerIdentity() string {
	return fmt.Sprintf("w%d-%d", os.Getpid(), workerSeq.Add(1))
}

// Work connects to a server and processes jobs on the given number of
// slots until the server ends the session (a bye frame or a plain hangup,
// returns nil) or the connection fails. Jobs run through
// experiments.RunSpecLocal, so a worker started with a result cache
// serves repeated points from disk but never re-enters a queue.
func Work(addr string, slots int) error {
	_, err := workOnce(addr, workerIdentity(), slots, func() {})
	return err
}

// WorkLoop is Work hardened for long fleets: a connection that drops
// without the server's bye frame (server crash, network partition,
// restart) is retried with capped, jittered exponential backoff rather
// than ending the worker, so a restarted server finds its fleet intact —
// trickling back rather than stampeding. It returns nil once a server
// completes a run (a bye frame, or a clean hangup from a legacy server
// that never advertised bye support), the rejection error if the
// handshake is refused (an engine mismatch will not fix itself),
// ErrWorkerKilled if the chaos harness killed this worker, or the last
// connection error after reconnectMaxDown consecutive attempts that never
// heard from a server.
func WorkLoop(addr string, slots int) error {
	if slots < 1 {
		return fmt.Errorf("queue: worker needs >= 1 slots, got %d", slots)
	}
	name := workerIdentity()
	// Jitter seed: derived from the identity counter and pid, never the
	// clock — two workers get different schedules, one worker gets the
	// same schedule every run.
	seed := rng.Mix64(uint64(os.Getpid())<<20 ^ uint64(workerSeq.Load()))
	attempt, down := 0, 0
	idleEnd := false
	for {
		up := false
		end, err := workOnce(addr, name, slots, func() {
			// First frame from the server: the link works, restart the
			// backoff schedule.
			up = true
		})
		if end.clean {
			return nil
		}
		if end.idle && end.legacy {
			// A clean hangup from a server that never advertised bye
			// support IS that server's end of run: exit now instead of
			// spinning through the idle reconnect schedule against a
			// server that simply finished. Known trade-off: a pre-ack
			// server that DOES send bye (the one release between bye and
			// hello-ack) crashing at an idle moment looks identical, and
			// the worker prefers a clean exit over a ten-minute spin —
			// the ambiguity the ack exists to remove going forward.
			return nil
		}
		if errors.Is(err, ErrRejected) {
			return err
		}
		if errors.Is(err, ErrWorkerKilled) {
			// The chaos harness killed this worker process; a real one
			// would not reconnect, so neither does this identity.
			return err
		}
		if up {
			attempt, down, idleEnd = 0, 0, false
		}
		if end.idle {
			idleEnd = true
		}
		limit := reconnectMaxDown
		if idleEnd {
			limit = reconnectMaxDownIdle
		}
		down++
		if down > limit {
			if err == nil {
				err = fmt.Errorf("queue: server at %s hung up without bye", addr)
			}
			return fmt.Errorf("queue: giving up after %d reconnect attempts: %w", down-1, err)
		}
		time.Sleep(backoffDelay(attempt, seed))
		attempt++
	}
}

// sessionEnd describes how one worker session finished.
type sessionEnd struct {
	clean bool // the server sent bye: the run is over
	idle  bool // bare EOF with no job outstanding (a pre-bye server's
	// normal finish looks exactly like this)
	legacy bool // no hello-ack seen: the server predates capability
	// negotiation, so it will never send bye
}

// workOnce runs one worker session. A bare EOF (legacy hangup or a
// dropped connection) reports neither clean nor an error, so Work can
// keep its lenient contract while WorkLoop treats it as a fault. onFrame
// runs once, at the first frame received from the server.
func workOnce(addr, name string, slots int, onFrame func()) (end sessionEnd, err error) {
	if slots < 1 {
		return end, fmt.Errorf("queue: worker needs >= 1 slots, got %d", slots)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return end, fmt.Errorf("queue: %w", err)
	}
	if c := activeChaos(); c != nil {
		conn = c.wrapConn(conn)
	}
	defer conn.Close()
	var wmu sync.Mutex
	var killed atomic.Bool // the chaos harness killed this worker
	if err := writeMessage(conn, &message{Type: "hello", Slots: slots,
		Engine: sim.EngineVersion, Name: name, CkptCap: true, HBCap: true}); err != nil {
		return end, fmt.Errorf("queue: %w", err)
	}
	r := bufio.NewReader(conn)
	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, slots)
	var outstanding atomic.Int64 // jobs accepted but not yet answered
	var serverCkpt atomic.Bool   // hello-ack advertised checkpoint support
	first := true
	hbStarted := false
	end.legacy = true // until a hello-ack proves otherwise

	// Graceful drain: once experiments.RequestDrain is raised (the worker
	// process caught SIGTERM/SIGINT), in-flight runs stop at their next
	// inter-cycle point and ship a final ckpt frame; when the last slot
	// empties, the watcher announces the drain with a worker-side bye and
	// hangs up, so the server requeues the jobs — snapshots attached —
	// and accounts this exit as drained, not crashed.
	draining := &atomic.Bool{}
	var drainOnce sync.Once
	drainBye := func() {
		drainOnce.Do(func() {
			draining.Store(true)
			wmu.Lock()
			_ = writeMessage(conn, &message{Type: "bye"})
			wmu.Unlock()
			conn.Close()
		})
	}
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-watcherDone:
				return
			case <-tick.C:
				if experiments.DrainRequested() && outstanding.Load() == 0 {
					drainBye()
					return
				}
			}
		}
	}()

	for {
		var msg message
		if err := readMessage(r, &msg); err != nil {
			if killed.Load() {
				return end, ErrWorkerKilled
			}
			if draining.Load() {
				end.clean = true // the drain hangup is this worker's end of run
				return end, nil
			}
			if isEOF(err) {
				end.idle = outstanding.Load() == 0
				return end, nil // hangup without bye
			}
			return end, fmt.Errorf("queue: %w", err)
		}
		if first {
			first = false
			onFrame()
		}
		switch msg.Type {
		case "hello-ack":
			if msg.Bye {
				end.legacy = false // this server promises a bye frame
			}
			serverCkpt.Store(msg.CkptCap)
			if msg.HB > 0 && !hbStarted {
				// The server asked for heartbeats: beat until the session
				// ends. Heartbeats prove the process lives even while a
				// long job occupies every slot.
				hbStarted = true
				interval := time.Duration(msg.HB) * time.Millisecond
				go func() {
					tick := time.NewTicker(interval)
					defer tick.Stop()
					for {
						select {
						case <-watcherDone:
							return
						case <-tick.C:
							wmu.Lock()
							werr := writeMessage(conn, &message{Type: "hb"})
							wmu.Unlock()
							if werr != nil {
								return
							}
						}
					}
				}()
			}
		case "bye":
			end.clean = true
			return end, nil // server finished the run
		case "error":
			return end, fmt.Errorf("%w: %s", ErrRejected, msg.Error)
		case "job":
			if experiments.DrainRequested() {
				// Never start new work while draining; the unanswered job
				// requeues (with any prior snapshot) when the drain hangup
				// lands.
				continue
			}
			spec, err := experiments.DecodeSpecJSON(msg.Spec)
			if c := activeChaos(); c != nil && err == nil {
				if c.killsJob(spec) {
					// A poison job: receiving it kills this worker, the
					// wire shape of a spec that crashes its process.
					killed.Store(true)
					conn.Close()
					continue
				}
				if d := c.stallFor(spec); d > 0 {
					// A stuck worker: hold the job silently past its
					// lease, then proceed — the late answer exercises the
					// server's fencing.
					time.Sleep(d)
				}
			}
			id, fence := msg.ID, msg.Fence
			resume := decodeSnapshotPayload(msg.Ckpt)
			if h := testResumeHook; h != nil && len(resume) > 0 {
				h(len(resume))
			}
			outstanding.Add(1)
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				reply := message{Type: "result", ID: id, Fence: fence}
				var res *sim.Result
				runErr := err
				if runErr == nil {
					if serverCkpt.Load() {
						res, runErr = experiments.RunSpecCheckpointed(spec, resume, func(snap []byte) error {
							payload, perr := encodeSnapshotPayload(snap)
							if perr != nil {
								return nil // an unshippable snapshot never fails the run
							}
							wmu.Lock()
							werr := writeMessage(conn, &message{Type: "ckpt", ID: id, Fence: fence, Ckpt: payload})
							wmu.Unlock()
							return werr
						})
					} else {
						res, runErr = experiments.RunSpecLocal(spec)
					}
				}
				if errors.Is(runErr, sim.ErrCheckpointed) {
					// Drained mid-run: the final snapshot is already on the
					// wire. Leave the job unanswered — the server requeues
					// it with that snapshot — and let the watcher send the
					// worker bye once every slot has stopped.
					outstanding.Add(-1)
					return
				}
				if runErr != nil {
					reply.Error = runErr.Error()
				} else {
					raw := res.AppendBinary(nil)
					sum := sha256.Sum256(raw)
					reply.Result = base64.StdEncoding.EncodeToString(raw)
					reply.Sum = hex.EncodeToString(sum[:])
				}
				// The job stops counting as outstanding before its answer
				// can reach the server — a server that hangs up on reading
				// it must find this session idle — and under the write
				// lock, so a drain bye still queues behind the answer.
				wmu.Lock()
				outstanding.Add(-1)
				_ = writeMessage(conn, &reply)
				wmu.Unlock()
			}()
		}
	}
}

// testResumeHook, when set by a test, observes every non-empty resume
// snapshot a job frame carries — proof the requeue-with-snapshot path ran.
var testResumeHook func(resumeLen int)

// encodeSnapshotPayload compresses a raw engine snapshot for the wire:
// gzip (snapshots are highly repetitive struct-of-arrays data), then
// base64 for the JSON frame.
func encodeSnapshotPayload(snap []byte) (string, error) {
	var buf bytes.Buffer
	if err := cache.CompressSnapshot(&buf, snap); err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

// decodeSnapshotPayload reverses encodeSnapshotPayload. Any corruption
// returns nil — the job then runs from zero, which is always safe (and
// the snapshot's own checksum catches what gzip doesn't).
func decodeSnapshotPayload(payload string) []byte {
	if payload == "" {
		return nil
	}
	raw, err := base64.StdEncoding.DecodeString(payload)
	if err != nil {
		return nil
	}
	return cache.DecompressSnapshot(bytes.NewReader(raw))
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// readMessage decodes one line-delimited frame.
func readMessage(r *bufio.Reader, msg *message) error {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, msg)
}

// writeMessage encodes one frame and appends the line delimiter.
func writeMessage(conn net.Conn, msg *message) error {
	data, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = conn.Write(data)
	return err
}
