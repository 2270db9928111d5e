// Deterministic chaos injection for the work queue. A worker wrapped by
// (*Chaos).wrap dials through the harness and hands it every job it
// receives; the harness injects, from a seeded schedule and bounded
// budgets, the faults the failure model claims to tolerate:
//
//   - disconnects: the connection is severed after a seeded number of
//     frames — the wire shape of a SIGKILLed worker;
//   - corrupt results: one byte of a result frame's base64 payload is
//     flipped (the frame stays valid JSON, the SHA-256 does not match) —
//     a bad NIC, a bad switch buffer;
//   - truncated frames: half a result frame is written and reported as
//     sent, so the server's next read sees a torn line — a crash mid-send;
//   - poison jobs: receiving a job with the configured label kills the
//     worker, every time — a spec that crashes whatever runs it;
//   - stalls: the first job with the configured label is held silently
//     past its lease before running — a wedged worker whose late answer
//     must bounce off the server's fencing.
//
// Every decision flows from ChaosConfig.Seed through a splitmix64 walk,
// so a chaos schedule replays exactly; no clock, no global RNG. Nothing is
// installed: a harness reaches exactly the workers it wrapped, so
// workers under different harnesses, or none, share a process.
package queue

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/rng"
)

// ChaosConfig is a seeded fault schedule. Zero budgets inject nothing of
// that kind; the zero value is a no-op harness.
type ChaosConfig struct {
	// Seed drives every injection decision; equal seeds replay equal
	// schedules against the same sequence of sessions and frames.
	Seed uint64
	// Disconnects is how many worker connections to sever mid-session,
	// each after a seeded number of outbound frames.
	Disconnects int
	// CorruptResults is how many result frames get one payload byte
	// flipped in transit.
	CorruptResults int
	// TruncateFrames is how many result frames are cut in half on the
	// wire (and reported to the worker as fully sent).
	TruncateFrames int
	// PoisonLabel, when non-empty, kills any worker that receives a job
	// whose spec label (JobSpec.String()) matches — every time, which is
	// what drives the job into quarantine.
	PoisonLabel string
	// StallLabel, when non-empty, makes the first matching job stall for
	// StallFor before running. Size StallFor past the job's lease to
	// force a revocation and a zombie result.
	StallLabel string
	StallFor   time.Duration
}

// Chaos injects the faults of a ChaosConfig. The exported counters
// report what was actually injected, so tests assert the schedule fired
// rather than silently under-delivering.
type Chaos struct {
	cfg ChaosConfig

	mu          sync.Mutex
	state       uint64 // splitmix64 walk; all seeded decisions draw from it
	disconnects int    // remaining budgets
	corrupts    int
	truncates   int
	stalledOnce bool

	// Injection counters (what actually happened, not the budgets).
	Disconnected atomic.Int64
	Corrupted    atomic.Int64
	Truncated    atomic.Int64
	Poisoned     atomic.Int64
	Stalled      atomic.Int64
}

// NewChaos builds a harness for the given schedule.
func NewChaos(cfg ChaosConfig) *Chaos {
	return &Chaos{
		cfg:         cfg,
		state:       cfg.Seed,
		disconnects: cfg.Disconnects,
		corrupts:    cfg.CorruptResults,
		truncates:   cfg.TruncateFrames,
	}
}

// wrap puts every session of w under c: the dialer wraps each connection w
// opens, and the job seam kills on the poison label and holds the stall
// label.
func (c *Chaos) wrap(w *worker) {
	dial := w.dial
	w.dial = func(addr string) (net.Conn, error) {
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return c.wrapConn(conn), nil
	}
	w.onJob = func(spec *experiments.JobSpec) (time.Duration, error) {
		if c.killsJob(spec) {
			// A poison job: receiving it kills this worker, the wire shape
			// of a spec that crashes its process.
			return 0, errWorkerKilled
		}
		// A stuck worker: hold the job past its lease, so the server
		// revokes it instead of severing the link; the late answer then
		// exercises the server's fencing.
		return c.stallFor(spec), nil
	}
}

// next draws the next value of the seeded walk.
func (c *Chaos) next() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state += 0x9e3779b97f4a7c15
	return rng.Mix64(c.state)
}

// wrapConn puts a freshly dialed worker connection under injection. If
// the disconnect budget allows, this session is scheduled to be severed
// after a seeded number of outbound frames.
func (c *Chaos) wrapConn(conn net.Conn) net.Conn {
	cut := -1
	c.mu.Lock()
	if c.disconnects > 0 {
		c.disconnects--
		c.mu.Unlock()
		// 2..9 frames: past the hello, inside the working session.
		cut = 2 + int(c.next()%8)
	} else {
		c.mu.Unlock()
	}
	return &chaosConn{Conn: conn, c: c, cut: cut}
}

// killsJob reports whether receiving spec kills this worker (poison).
func (c *Chaos) killsJob(spec *experiments.JobSpec) bool {
	if c.cfg.PoisonLabel == "" || spec.String() != c.cfg.PoisonLabel {
		return false
	}
	c.Poisoned.Add(1)
	return true
}

// stallFor reports how long to hold spec before running it; only the
// first matching job stalls (a stall repeated on every re-dispatch would
// make the spec indistinguishable from poison).
func (c *Chaos) stallFor(spec *experiments.JobSpec) time.Duration {
	if c.cfg.StallLabel == "" || spec.String() != c.cfg.StallLabel {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stalledOnce {
		return 0
	}
	c.stalledOnce = true
	c.Stalled.Add(1)
	return c.cfg.StallFor
}

// takeCorrupt claims one unit of the result-corruption budget.
func (c *Chaos) takeCorrupt() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.corrupts <= 0 {
		return false
	}
	c.corrupts--
	return true
}

// takeTruncate claims one unit of the frame-truncation budget.
func (c *Chaos) takeTruncate() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.truncates <= 0 {
		return false
	}
	c.truncates--
	return true
}

// chaosConn is a worker connection under injection. The session loop is
// the connection's only writer, so the per-connection state needs no
// locking.
type chaosConn struct {
	net.Conn
	c    *Chaos
	cut  int // frames until an injected disconnect; -1 = never
	dead bool
}

var resultMarker = []byte(`"result":"`)

func (cc *chaosConn) Write(b []byte) (int, error) {
	if cc.dead {
		return 0, net.ErrClosed
	}
	if i := bytes.Index(b, resultMarker); i >= 0 {
		if cc.c.takeTruncate() {
			// Write half the frame but report it all sent: the worker
			// moves on, and the server's next read delivers a torn line
			// (this half glued to the next frame) that fails to parse —
			// the corrupt-frame path, counted and severed server-side.
			cc.c.Truncated.Add(1)
			if _, err := cc.Conn.Write(b[:len(b)/2]); err != nil {
				return 0, err
			}
			return len(b), nil
		}
		if cc.c.takeCorrupt() {
			// Flip one byte inside the base64 payload: the frame stays
			// parseable JSON and decodable base64, but the SHA-256 the
			// worker computed no longer matches the bytes.
			j := i + len(resultMarker) + 8
			if j < len(b) {
				mut := append([]byte(nil), b...)
				if mut[j] == 'A' {
					mut[j] = 'B'
				} else {
					mut[j] = 'A'
				}
				b = mut
				cc.c.Corrupted.Add(1)
			}
		}
	}
	n, err := cc.Conn.Write(b)
	if err == nil && cc.cut >= 0 {
		if cc.cut--; cc.cut < 0 {
			cc.c.Disconnected.Add(1)
			cc.dead = true
			cc.Conn.Close()
		}
	}
	return n, err
}
