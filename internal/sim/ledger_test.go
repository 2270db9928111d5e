package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/wire"
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
	// Each credit spent below stands for a packet: one on the link, bound
	// for the input VC at the far end, a pending evArrive there.
	onLink := func(from, v int32) {
		to := e.up[from]
		e.scheduleSw(to/int32(e.P), 1, event{kind: evArrive, a: to*V + v, pkt: e.allocPacket()})
	}

	// The sender spends a credit of the requested queue: its downstream
	// buffer holds one more packet, counted once in qs.
	e.credits[gport*V+vc]--
	e.pq[far].credSum--
	onLink(gport, vc)
	if got := e.qCost(gport, vc, false); got != base+1 {
		t.Errorf("a packet in the requested queue's downstream buffer moved Q by %d, want 1", got-base)
	}
	// ... of another VC of the same output: the paper's "rest of the
	// port's queues". The engine does not read it.
	e.credits[gport*V+other]--
	e.pq[far].credSum--
	onLink(gport, other)
	if got := e.qCost(gport, vc, false); got != base+1 {
		t.Errorf("a packet in another VC's downstream buffer moved Q by %d, want 0 (hyperx-sim/4)", got-base-1)
	}
	// The far end spends a credit toward this port: a packet is on its way
	// into gport's own input buffer. That is what the term reads.
	e.credits[far*V+other]--
	e.pq[gport].credSum--
	onLink(far, other)
	if got := e.qCost(gport, vc, false); got != base+2 {
		t.Errorf("a packet bound for the port's own input buffer moved Q by %d, want 1 (hyperx-sim/4)", got-base-1)
	}
	e.verifyPorts() // the three edits kept the ledger coherent and every credit conserved
}

// TestLedgerAuditsCatchDrift: the CheckInvariants audits of the
// sender-indexed ledger fire on a credit the receiver has no slot for, on a
// negative credit and on a drifted credit sum, each naming both ends, and
// on a credit spent on a live link with no packet behind it. They fire on
// an outgoing crossbar count one above the calendar's owed credits and on
// a per-VC output count off its queued tags plus transfers, both inside
// every bound (an audit of bounds alone passes all three). The
// same port audit fires on an injMask bit out of step with its server's
// queue in either direction, and passes a queued packet whose bit is set;
// it fires on a corrupted head-cache entry and on head state left on an
// empty input VC, and passes an intact cached head. It fires on a calendar
// bit over an empty slot and on an event in a slot whose bit is clear, and
// passes a calendar kept by scheduleSw.
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
		w, b := e.maskBit(far/int32(e.P), int(far%int32(e.P)))
		e.inMask[w] |= b
	})
	audit("negative-credit", "credits[", func(e *engine, gport, far int32) {
		e.credits[gport*int32(e.V)] = -1
		e.pq[far].credSum -= int16(e.cfg.InputBufPkts) + 1
	})
	audit("credSum-drift", "credSum[", func(e *engine, gport, far int32) {
		e.credits[gport*int32(e.V)]-- // spent by gport, so far's sum should drop
		e.pq[gport].credSum--         // ... not gport's own
	})
	audit("credit-spent-without-packet", "credit conservation", func(e *engine, gport, far int32) {
		e.credits[gport*int32(e.V)+1]-- // the sum follows: only the packet is missing
		e.pq[far].credSum--
	})
	audit("inInflight-without-credit-event", "inInflight[", func(e *engine, gport, far int32) {
		e.inInflight[gport]++ // one transfer out of the port, within the speedup of 2, owes no credit
	})
	audit("outVCCount-drift", "outVCCount[", func(e *engine, gport, far int32) {
		e.outVCCount[gport*int32(e.V)+1]++ // the port queues nothing and nothing crosses into it
	})
	// injMask: bit R+s of gport's switch stands for server s's queue.
	injBit := func(e *engine, gport int32, s int) (int32, int, uint64) {
		sw := gport / int32(e.P)
		w, b := e.maskBit(sw, e.R+s)
		return sw*int32(e.K) + int32(s), w, b
	}
	audit("inj-bit-without-packet", "mask word", func(e *engine, gport, far int32) {
		_, w, b := injBit(e, gport, 1)
		e.injMask[w] |= b // server 1's queue is empty
	})
	audit("inj-packet-without-bit", "mask word", func(e *engine, gport, far int32) {
		g, _, _ := injBit(e, gport, 1)
		e.injQ.push(g, e.allocPacket()) // server 1 holds a packet its clear bit does not show
	})
	t.Run("inj-intact", func(t *testing.T) {
		e := ledgerEngine(t)
		g, w, b := injBit(e, int32(4*e.P+1), 2)
		e.injQ.push(g, e.allocPacket())
		e.injMask[w] |= b
		e.verifyPorts()
	})
	// The head cache: an entry that no longer packs what Candidates says
	// of the head, and head state on an input VC that holds no packet.
	audit("head-entry-corrupt", "head cache of input VC", func(e *engine, gport, far int32) {
		invc := cacheHead(e, gport)
		sw := gport / int32(e.P)
		e.hcArena[int(sw)*e.hcCap+int(e.hcOff[invc])] ^= 1 << 16 // another VC
	})
	audit("head-state-on-empty-vc", "head cache state", func(e *engine, gport, far int32) {
		e.hcLen[gport*int32(e.V)+2] = hcSeen
	})
	// The calendar word: bit t of evMask[sw] stands for slot t of the
	// switch's calendar.
	audit("calendar-bit-on-empty-slot", "calendar word", func(e *engine, gport, far int32) {
		e.evMask[gport/int32(e.P)] |= 1 << 3
	})
	audit("calendar-event-without-bit", "calendar word", func(e *engine, gport, far int32) {
		slot := int64(gport/int32(e.P))*e.horizon + 5
		e.events[slot] = append(e.events[slot], event{kind: evDeliver, pkt: e.allocPacket()})
	})
	t.Run("calendar-intact", func(t *testing.T) {
		e := ledgerEngine(t)
		sw := int32(4)
		e.scheduleSw(sw, 3, event{kind: evDeliver, pkt: e.allocPacket()})
		e.scheduleSw(sw, e.horizon-1, event{kind: evDeliver, pkt: e.allocPacket()})
		if e.evMask[sw] == 0 {
			t.Fatal("scheduleSw left the calendar word clear")
		}
		e.verifyPorts()
	})
	t.Run("head-intact", func(t *testing.T) {
		e := ledgerEngine(t)
		if invc := cacheHead(e, int32(4*e.P+1)); e.hcLen[invc] <= hcCached {
			t.Fatalf("after two evaluations the head of input VC %d is in state %d, want a cached list", invc, e.hcLen[invc])
		}
		e.verifyPorts()
	})
}

// cacheHead queues one packet bound for switch 0 in input VC 1 of link
// port gport, with the credit its sender spent on it, and prices the head
// twice, which caches its candidate list. It returns the input VC.
func cacheHead(e *engine, gport int32) int32 {
	V := int32(e.V)
	sw := gport / int32(e.P)
	invc := gport*V + 1
	id := e.allocPacket()
	e.mech.Init(&e.pool[id].st, sw, 0, e.r)
	e.inQ.push(invc, id)
	w, b := e.maskBit(sw, int(gport%int32(e.P)))
	e.inMask[w] |= b
	e.credits[e.up[gport]*V+1]--
	e.pq[gport].credSum--
	for range 2 {
		e.headRequest(sw, gport, invc, 1, &e.tie[sw], &e.ws[0])
	}
	return invc
}

// oldSnapshots are snapshots of the formats before this one, one per
// format, each written by the last engine of its format as a .ckpt file of
// that engine held it: gzip over the sealed codec, the form Resume takes.
// All are of one run — 4x4 PolSP, four VCs, four servers per switch, load
// 0.9, seed 77, links RandomFaultSequence(h, 7)[0] and [1] failing at
// cycles 400 and 800 — taken at cycle 804. They are the negative seeds of
// the format: what an old worker or an old checkpoint directory still
// holds. hyperx-ckpt/1 is from the engine before the sender-indexed ledger,
// whose Result bytes for the uninterrupted run have the SHA-256
// resultOfCkpt1Run; hyperx-ckpt/2 also stored the crossbar counts, the
// per-VC output counts, the arrival sampling constants and two checked
// copies; hyperx-ckpt/3 also stored the format name, the topology shape
// and calendar horizon, the series presence and server count, a burst's
// delivered total and six per-switch window arrays; hyperx-ckpt/4 also
// stored the run it belongs to as sixteen header fields, where /5 writes
// one identity line; hyperx-ckpt/5 also stored the fault cursor, which /6
// derives from the cycle and the schedule; hyperx-ckpt/6 stored the
// throughput series as float points, an open bucket and its index, where
// /7 stores one phit count per bucket.
var oldSnapshots = []struct {
	codec byte // the leading byte of the body
	path  string
}{
	{1, "testdata/ckpt1-4x4-polsp-2faults.gz"},
	{2, "testdata/ckpt2-4x4-polsp-2faults.gz"},
	{3, "testdata/ckpt3-4x4-polsp-2faults.gz"},
	{4, "testdata/ckpt4-4x4-polsp-2faults.gz"},
	{5, "testdata/ckpt5-4x4-polsp-2faults.gz"},
	{6, "testdata/ckpt6-4x4-polsp-2faults.gz"},
}

const resultOfCkpt1Run = "3386a774bdb6ac55b00e120be695b8f7cedfa43513bc7fed4508d42d0f020b52"

// TestOldSnapshotFormatsRefused: a snapshot of an older format — intact, its
// trailer valid, taken under this very spec — is refused with
// ErrBadSnapshot at the codec's leading byte, before any field is read, by
// the decoder, by restoreSnapshot and by Run; nothing of an old format's
// fields (hyperx-ckpt/1's receiver-ordered credits and release list,
// hyperx-ckpt/2's stored counts and copies, hyperx-ckpt/3's restated
// header and parallel window arrays, hyperx-ckpt/4's sixteen-field
// header, hyperx-ckpt/5's fault cursor, hyperx-ckpt/6's float series) is
// understood any more. The run
// they checkpointed still produces the old engine's Result from zero,
// which is what a refusal costs: a restart, never a result (JobSpec-level
// fallback: experiments' TestRunCheckpointedBadResumeFallsBack).
func TestOldSnapshotFormatsRefused(t *testing.T) {
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

	for _, old := range oldSnapshots {
		t.Run(fmt.Sprintf("ckpt%d", old.codec), func(t *testing.T) {
			snap, err := os.ReadFile(old.path)
			if err != nil {
				t.Fatal(err)
			}
			sealed, err := inflateSnapshot(snap, maxSnapshotBytes)
			if err != nil {
				t.Fatal(err)
			}
			body, ok := wire.Open(sealed)
			if !ok {
				t.Fatal("the fixture fails its own trailer: it no longer shows a refusal behind the checksum")
			}
			want := fmt.Sprintf("codec version %d", old.codec)
			if _, err := decodeSnapshotState(body); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), want) {
				t.Errorf("decoding the body: %v, want ErrBadSnapshot naming %s", err, want)
			}
			o := opts()
			e, err := newEngine(o)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.restoreSnapshot(snap, o); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("restoreSnapshot of the fixture: %v, want ErrBadSnapshot", err)
			}
			if e.now != 0 || len(e.pool) != 0 || o.Net.Faults.Len() != 0 {
				t.Errorf("the refused snapshot left a trace: now %d, pool %d, %d faults replayed", e.now, len(e.pool), o.Net.Faults.Len())
			}
			o = opts()
			o.Checkpoint = &CheckpointOptions{Resume: snap}
			if _, err := Run(o); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("Run resumed from the fixture: %v, want ErrBadSnapshot", err)
			}
		})
	}

	sum := sha256.Sum256(runBytes(t, opts()))
	if got := hex.EncodeToString(sum[:]); got != resultOfCkpt1Run {
		t.Errorf("uninterrupted run: Result digest %s, the old engine's was %s", got, resultOfCkpt1Run)
	}
}
