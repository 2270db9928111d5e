package sim

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// ledgerEngine is a fresh 3x3 PolSP engine for the tests that poke the
// credit ledger directly.
func ledgerEngine(t *testing.T) *engine {
	t.Helper()
	h := topo.MustHyperX(3, 3)
	nw := topo.NewNetwork(h, nil)
	mech, err := core.New(nw, core.PolarizedRoutes, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(RunOptions{
		Net: nw, ServersPerSwitch: 3, Mechanism: mech, Pattern: uniformOn(t, h, 3),
		Load: 0.5, MeasureCycles: 10, Seed: 1, Config: DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestQCostReadsWhichBuffers states, buffer by buffer, what the allocation
// cost of output (gport, vc) reads. The requested queue's downstream input
// buffer is priced as Section 3 says. The "rest of the port" term is the
// consumed credits of the port's own INPUT buffers — the reverse direction
// of the link — and not, as in the paper, the downstream buffers of the
// port's other VCs. hyperx-sim/4 results are pinned to this; the test is
// the reminder of what a versioned fix has to change.
func TestQCostReadsWhichBuffers(t *testing.T) {
	e := ledgerEngine(t)
	V := int32(e.V)
	gport := int32(4*e.P + 1) // link port 1 of switch 4
	far := e.up[gport]
	if far == gport || e.up[far] != gport {
		t.Fatalf("up[%d] = %d, up[%d] = %d: not the two ends of one link", gport, far, far, e.up[far])
	}
	const vc, other = 1, 2
	base := e.qCost(gport, vc, false)

	// The sender spends a credit of the requested queue: its downstream
	// buffer holds one more packet, counted once in qs.
	e.credits[gport*V+vc]--
	e.pq[far].credSum--
	if got := e.qCost(gport, vc, false); got != base+1 {
		t.Errorf("a packet in the requested queue's downstream buffer moved Q by %d, want 1", got-base)
	}
	// ... of another VC of the same output: the paper's "rest of the
	// port's queues". The engine does not read it.
	e.credits[gport*V+other]--
	e.pq[far].credSum--
	if got := e.qCost(gport, vc, false); got != base+1 {
		t.Errorf("a packet in another VC's downstream buffer moved Q by %d, want 0 (hyperx-sim/4)", got-base-1)
	}
	// The far end spends a credit toward this port: a packet is on its way
	// into gport's own input buffer. That is what the term reads.
	e.credits[far*V+other]--
	e.pq[gport].credSum--
	if got := e.qCost(gport, vc, false); got != base+2 {
		t.Errorf("a packet bound for the port's own input buffer moved Q by %d, want 1 (hyperx-sim/4)", got-base-1)
	}
	e.verifyPorts() // the three edits kept the ledger coherent
}

// TestLedgerAuditsCatchDrift: the CheckInvariants audits of the
// sender-indexed ledger fire on a credit the receiver has no slot for, on a
// negative credit and on a drifted credit sum, each naming both ends.
func TestLedgerAuditsCatchDrift(t *testing.T) {
	audit := func(name, want string, corrupt func(e *engine, gport, far int32)) {
		t.Run(name, func(t *testing.T) {
			e := ledgerEngine(t)
			gport := int32(4*e.P + 1)
			corrupt(e, gport, e.up[gport])
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, want) {
					t.Errorf("audit said %q, want it to mention %q", msg, want)
				}
			}()
			e.verifyPorts()
		})
	}
	audit("credit-without-slot", "credits[", func(e *engine, gport, far int32) {
		// far's input VC 0 holds a packet its sender was never charged for.
		e.inQ.push(far*int32(e.V), e.allocPacket())
		e.inOcc[far]++
		e.inMask[far/int32(e.P)] |= 1 << uint32(far%int32(e.P))
		e.swInPkts[far/int32(e.P)]++
		e.inFlight++
	})
	audit("negative-credit", "credits[", func(e *engine, gport, far int32) {
		e.credits[gport*int32(e.V)] = -1
		e.pq[far].credSum -= int16(e.cfg.InputBufPkts) + 1
	})
	audit("credSum-drift", "credSum[", func(e *engine, gport, far int32) {
		e.credits[gport*int32(e.V)]-- // spent by gport, so far's sum should drop
		e.pq[gport].credSum--         // ... not gport's own
	})
}

// snapshotFromPR12 is a hyperx-ckpt/1 snapshot written by the engine of the
// commit before the sender-indexed ledger (credits in receiver order, a
// downstream-VC word per port): 4x4 PolSP, four VCs, four servers per
// switch, load 0.9, seed 77, links RandomFaultSequence(h, 7)[0] and [1]
// failing at cycles 400 and 800, taken at cycle 804 — four cycles after
// the second failure, so credits are still owed to the senders of dead
// ports. resultFromPR12 is the SHA-256 of the Result bytes that commit
// produced for the uninterrupted run.
const (
	snapshotFromPR12 = "testdata/ckpt1-pr12-4x4-polsp-2faults.gz"
	resultFromPR12   = "3386a774bdb6ac55b00e120be695b8f7cedfa43513bc7fed4508d42d0f020b52"
)

// readGzip returns the decompressed content of a testdata file.
func readGzip(t testing.TB, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotFromReceiverIndexedEngine: checkpoints written before the
// ledger moved still resume. The old snapshot installs into the new engine
// with every audit clean, re-encodes to the very bytes it was read from
// (so the conversion through up[] loses nothing in either direction), and
// runs on — at two worker counts, audited — to the old engine's Result.
func TestSnapshotFromReceiverIndexedEngine(t *testing.T) {
	snap := readGzip(t, snapshotFromPR12)
	h := topo.MustHyperX(4, 4)
	seq := topo.RandomFaultSequence(h, 7)
	opts := func() RunOptions {
		nw := topo.NewNetwork(h, topo.NewFaultSet())
		cfg := DefaultConfig()
		cfg.CheckInvariants = true
		return RunOptions{
			Net: nw, ServersPerSwitch: 4, Mechanism: buildMech(t, "PolSP", nw),
			Pattern: uniformOn(t, h, 4),
			Load:    0.9, WarmupCycles: 0, MeasureCycles: 1200, Seed: 77, Config: cfg,
			FaultSchedule: []FaultEvent{{Cycle: 400, Edge: seq[0]}, {Cycle: 800, Edge: seq[1]}},
		}
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}

	o := opts()
	e, err := newEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	e.warmStart, e.warmEnd = o.WarmupCycles, o.WarmupCycles+o.MeasureCycles
	if err := e.restoreSnapshot(snap, o); err != nil {
		t.Fatal(err)
	}
	owed := 0
	for gp, dead := range e.portDead {
		for vc := 0; dead && vc < e.V; vc++ {
			owed += e.cfg.InputBufPkts - int(e.credits[gp*e.V+vc])
		}
	}
	if owed == 0 {
		t.Error("the snapshot holds no credit owed to a dead port: it no longer covers that leg")
	}
	e.verifyPorts()
	if again := e.encodeSnapshot(o); !bytes.Equal(again, snap) {
		t.Error("restore then capture does not reproduce the old engine's snapshot bytes")
	}

	if got := digest(runBytes(t, opts())); got != resultFromPR12 {
		t.Errorf("uninterrupted run: Result digest %s, the old engine's was %s", got, resultFromPR12)
	}
	for _, workers := range []int{1, 4} {
		o := opts()
		o.Workers = workers
		o.Checkpoint = &CheckpointOptions{Resume: snap}
		if got := digest(runBytes(t, o)); got != resultFromPR12 {
			t.Errorf("resumed at workers=%d: Result digest %s, the old engine's was %s", workers, got, resultFromPR12)
		}
	}
}
