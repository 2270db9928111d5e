package queue

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/sim"
)

// ErrRejected marks a handshake rejection — the server refused the hello,
// or its ack speaks another protocol: the condition is permanent for this
// worker build, so WorkLoop gives up instead of retrying.
var ErrRejected = errors.New("queue: server rejected worker")

// errWorkerKilled ends the session of a worker whose onJob seam killed it
// on a received job. A real killed worker's process is simply gone, so loop
// treats the error as final: this identity does not reconnect.
var errWorkerKilled = errors.New("queue: worker killed on a received job")

// workerSeq distinguishes worker identities minted in one process.
var workerSeq atomic.Int64

// backoff is a worker's reconnect schedule: exponential from base between
// connection attempts, with seeded jitter, capped at max, giving up after
// maxDown consecutive attempts that never got a frame from the server.
type backoff struct {
	base, max time.Duration
	maxDown   int
}

// delay computes the reconnect pause for the given attempt. The jitter,
// deterministic in the worker's seed, de-synchronizes a fleet whose server
// just restarted — without it every worker that died together retries
// together, forever.
func (b backoff) delay(attempt int, seed uint64) time.Duration {
	if attempt > 30 {
		attempt = 30 // past the cap anyway; keep the shift in range
	}
	d := b.base << attempt
	if d <= 0 || d > b.max {
		d = b.max
	}
	jitter := time.Duration(rng.Mix64(seed+uint64(attempt)) % uint64(d/2+1))
	if d += jitter; d > b.max {
		d = b.max
	}
	return d
}

// worker is one worker lifetime, built once by Work or WorkLoop. Nothing in
// it is shared, so workers set differently live side by side in a process.
type worker struct {
	r experiments.Runner // runs the jobs; r.Workers is the slot count
	// name is the fleet-unique identity, minted without consulting the
	// clock: pid plus a process-local counter. It is the unit of poison-job
	// accounting — one identity per worker lifetime, surviving reconnects,
	// so a flaky link does not impersonate a parade of distinct victims.
	name string
	// seed drives the reconnect jitter. It derives from the pid and the
	// counter minted for name, never the clock: two workers get different
	// schedules, one worker gets the same schedule every run.
	seed     uint64
	schedule backoff
	dial     func(addr string) (net.Conn, error) // net.Dial in production

	// The seams, nil in production. onJob sees every job received: an error
	// ends the session with it, a duration holds the job that long before it
	// runs. onResume is told the size of each resume snapshot a job carries.
	onJob    func(spec *experiments.JobSpec) (hold time.Duration, err error)
	onResume func(resumeLen int)
}

// newWorker mints a worker over r on the production schedule, which
// tolerates ~10 minutes of server downtime — a redeploy or host reboot, not
// just a blip — before the worker declares the run lost.
func newWorker(r experiments.Runner) (*worker, error) {
	if r.Workers < 1 {
		return nil, fmt.Errorf("queue: worker needs >= 1 slots, got %d", r.Workers)
	}
	pid, n := os.Getpid(), workerSeq.Add(1)
	return &worker{
		r:        r,
		name:     fmt.Sprintf("w%d-%d", pid, n),
		seed:     rng.Mix64(uint64(pid)<<20 ^ uint64(n)),
		schedule: backoff{base: 100 * time.Millisecond, max: 5 * time.Second, maxDown: 120},
		dial:     func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
	}, nil
}

// Work is one worker session over the process-default Runner on the given
// number of slots: until the server ends it (a bye frame, or a hangup, the
// fault only WorkLoop can act on; both return nil) or the connection fails.
// It is deleted by the next benchmark PR, with internal/experiments/shims.go:
// the frozen bench/ starts its in-process workers through it, next to the
// server whose Execute it has put on that same default — so the default's
// Execute is dropped here, or the jobs would bounce back into the queue.
//
//hx:allow unusedexport frozen bench/ calls it; deleted with the shims by ROADMAP 1(b)
func Work(addr string, slots int) error {
	r := experiments.DefaultRunner()
	r.Workers, r.Execute = slots, nil
	w, err := newWorker(r)
	if err != nil {
		return err
	}
	_, _, err = w.session(addr)
	return err
}

// WorkLoop connects to a server and runs its jobs through r on r.Workers
// slots — r has no Execute, so a worker started with a result cache serves
// repeated points from disk but never re-enters a queue. A connection that
// drops without the server's bye frame (server crash, network partition,
// restart) is retried with capped, jittered exponential backoff rather
// than ending the worker, so a restarted server finds its fleet intact —
// trickling back rather than stampeding. It returns nil once a server
// completes a run (a bye frame) or this worker has drained, the rejection
// error if the handshake is refused (another protocol or engine will not
// fix itself), or the last connection error after the schedule's maxDown
// consecutive attempts that never heard from a server.
func WorkLoop(addr string, r experiments.Runner) error {
	w, err := newWorker(r)
	if err != nil {
		return err
	}
	return w.loop(addr)
}

// loop runs sessions until one ends the worker's life, pausing on the
// worker's schedule between them.
func (w *worker) loop(addr string) error {
	down := 0 // consecutive sessions that never heard from a server
	for {
		over, heard, err := w.session(addr)
		if over {
			return nil
		}
		// A rejection is final, and so is a kill: a killed worker process
		// would not reconnect, so neither does this identity.
		if errors.Is(err, ErrRejected) || errors.Is(err, errWorkerKilled) {
			return err
		}
		if heard {
			down = 0 // the link worked: restart the backoff schedule
		}
		if down++; down > w.schedule.maxDown {
			if err == nil {
				err = fmt.Errorf("queue: server at %s hung up without bye", addr)
			}
			return fmt.Errorf("queue: giving up after %d reconnect attempts: %w", down-1, err)
		}
		time.Sleep(w.schedule.delay(down-1, w.seed))
	}
}

// session runs one worker session. over reports that the run is — a
// server bye, or this worker's own drain; heard that the server sent at
// least one frame, so the link works. A hangup without bye is neither
// over nor an error, so Work can keep its lenient contract while loop
// treats it as a fault.
//
// Its loop owns the session: it alone writes to the connection and counts
// the jobs it owes. Job goroutines hand their ckpt and result frames up
// instead of writing them, so "the answer, then the bye" is statement
// order here. A failed write is not acted on: the server's last words
// (its bye) may be unread, and the reader reports the stream's end after
// them.
func (w *worker) session(addr string) (over, heard bool, err error) {
	slots := w.r.Workers
	conn, err := w.dial(addr)
	if err != nil {
		return false, false, fmt.Errorf("queue: %w", err)
	}
	// Last to first: release the reader and the job goroutines, hang up,
	// and only then wait for the jobs — a run cannot be interrupted, and
	// the hangup must not wait on jobs whose answers have nowhere to go.
	var wg sync.WaitGroup
	defer wg.Wait()
	defer conn.Close()
	jobs := &jobPort{w: w, up: make(chan *message), sem: make(chan struct{}, slots), done: make(chan struct{})}
	defer close(jobs.done)
	if err := writeMessage(conn, &message{Type: "hello", Proto: protoVersion, Slots: slots,
		Engine: sim.EngineVersion, Name: w.name}); err != nil {
		return false, false, fmt.Errorf("queue: %w", err)
	}
	// Room for all the server may have outstanding — the ack, a job per
	// slot, the bye — so the reader drains the socket even while this loop
	// is writing. Without it a server writing a large job frame and a
	// worker writing a large ckpt frame could each wait for the other.
	frames := make(chan inbound, slots+2)
	go readFrames(conn, 0, frames, jobs.done)

	// The first frame settles the session: the ack, a refusal, or the bye
	// of a server that finished its run while the hello was on the wire.
	in := <-frames
	if in.err != nil {
		if isEOF(in.err) {
			return false, false, nil // hangup without bye
		}
		return false, false, fmt.Errorf("queue: %w", in.err)
	}
	ack := &in.msg
	switch {
	case ack.Type == "bye":
		return true, true, nil
	case ack.Type == "error":
		return false, true, fmt.Errorf("%w: %s", ErrRejected, ack.Error)
	case ack.Type != "hello-ack" || ack.Proto != protoVersion || ack.HB <= 0 || ack.Lease <= 0:
		return false, true, fmt.Errorf("%w: %s of queue protocol %q, hb %d ms, lease %d ms; worker speaks %q",
			ErrRejected, ack.Type, ack.Proto, ack.HB, ack.Lease, protoVersion)
	}
	// This session's jobs run under the server's lease, and the worker
	// beats until the session ends: heartbeats prove the process lives
	// even while a long job occupies every slot.
	r := withinLease(w.r, time.Duration(ack.Lease)*time.Millisecond)
	beat := time.NewTicker(time.Duration(ack.HB) * time.Millisecond)
	defer beat.Stop()

	owed := 0 // jobs accepted and not yet over
	// Graceful drain: once r.Drain is raised (the worker process caught
	// SIGTERM/SIGINT), in-flight runs stop at their next inter-cycle point
	// and ship a final ckpt frame; when the last job is over the loop
	// announces the drain with a worker-side bye and hangs up, so the
	// server requeues the jobs — snapshots attached — and accounts this
	// exit as drained, not crashed.
	drain := time.NewTicker(20 * time.Millisecond)
	defer drain.Stop()
	for {
		select {
		case in := <-frames:
			if in.err != nil {
				if isEOF(in.err) {
					return false, true, nil // hangup without bye
				}
				return false, true, fmt.Errorf("queue: %w", in.err)
			}
			switch msg := &in.msg; msg.Type {
			case "bye":
				return true, true, nil // server finished the run
			case "job":
				if w.r.Draining() {
					// Never start new work while draining; the unanswered
					// job requeues (with any prior snapshot) when the
					// drain hangup lands.
					continue
				}
				spec, err := experiments.DecodeSpecJSON(msg.Spec)
				var hold time.Duration
				if err == nil && w.onJob != nil {
					if hold, err = w.onJob(spec); err != nil {
						return false, true, err
					}
				}
				owed++
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Held here, not in the loop, so heartbeats keep flowing
					// while the job sits.
					time.Sleep(hold)
					jobs.run(r, msg, spec, err)
				}()
			}
		case msg := <-jobs.up:
			if msg != nil {
				_ = writeMessage(conn, msg)
			}
			if msg == nil || msg.Type == "result" {
				owed-- // answered, or drained and left for the server to requeue
			}
		case <-beat.C:
			_ = writeMessage(conn, &message{Type: "hb"})
		case <-drain.C:
			if w.r.Draining() && owed == 0 {
				_ = writeMessage(conn, &message{Type: "bye"})
				return true, true, nil // the drain hangup is this worker's end of run
			}
		}
	}
}

// withinLease returns r with its wall-clock checkpoint trigger capped at
// half the server's lease: r's own Every when that is shorter, else
// lease/2. So every run ships a ckpt frame, which renews its lease, at
// least twice a lease term however long it runs, and a lost worker costs
// at most half a lease of work. EveryCycles and Drain stay r's own.
func withinLease(r experiments.Runner, lease time.Duration) experiments.Runner {
	var pol experiments.CheckpointPolicy
	if r.Checkpoint != nil {
		pol = *r.Checkpoint
	}
	if pol.Every <= 0 || pol.Every > lease/2 {
		pol.Every = lease / 2
	}
	r.Checkpoint = &pol
	return r
}

// jobPort is what the job goroutines of one session share with its loop.
type jobPort struct {
	w    *worker       // whose jobs these are
	up   chan *message // ckpt and result frames for the wire; nil: a job ended unanswered
	sem  chan struct{} // one token per advertised slot
	done chan struct{} // closed when the session is over
}

// send hands msg to the session loop, or drops it once the session is
// over: what a job produces after that has nobody to go to.
func (jp *jobPort) send(msg *message) {
	select {
	case jp.up <- msg:
	case <-jp.done:
	}
}

// run is one job goroutine: it waits for a slot, runs the spec through r —
// resuming from the job frame's snapshot, if any, and shipping its
// checkpoints — and hands every frame it produces up to the session loop.
func (jp *jobPort) run(r experiments.Runner, job *message, spec *experiments.JobSpec, specErr error) {
	if h := jp.w.onResume; h != nil && len(job.Ckpt) > 0 {
		h(len(job.Ckpt))
	}
	select {
	case jp.sem <- struct{}{}:
		defer func() { <-jp.sem }()
	case <-jp.done:
		return
	}
	var res *sim.Result
	runErr := specErr
	if runErr == nil {
		res, runErr = r.RunSpecVia(spec, job.Ckpt, func(snap []byte) error {
			jp.send(&message{Type: "ckpt", ID: job.ID, Fence: job.Fence, Ckpt: snap})
			return nil
		})
	}
	if errors.Is(runErr, sim.ErrCheckpointed) {
		// Drained mid-run: the final snapshot is already on the wire.
		// Leave the job unanswered — the server requeues it with that
		// snapshot — and let the loop say bye once every job is over.
		jp.send(nil)
		return
	}
	reply := &message{Type: "result", ID: job.ID, Fence: job.Fence}
	encodeOutcome(reply, res, runErr)
	jp.send(reply)
}
