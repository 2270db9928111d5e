package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/wire"
)

// SnapshotVersion tags the mid-run checkpoint format. It versions the
// serialization layout and the set of engine fields it captures,
// independently of EngineVersion (which tags simulation semantics): adding
// or reordering snapshot fields bumps hyperx-ckpt/N and orphans old
// checkpoint files, while results, spec hashes and the queue handshake are
// untouched. A checkpoint is only ever an optimization — losing one costs a
// restart from zero, never a wrong result.
const SnapshotVersion = "hyperx-ckpt/1"

// snapshotCodecVersion is the leading byte of the binary layout, mirroring
// resultCodecVersion.
const snapshotCodecVersion = 1

// ErrBadSnapshot is returned (wrapped) when a checkpoint fails its checksum,
// decodes inconsistently, or does not match the run it is being resumed
// against. Callers treat it as "no usable checkpoint" and restart from zero.
var ErrBadSnapshot = errors.New("sim: bad snapshot")

// ErrCheckpointed is returned by Run when CheckpointOptions.Interrupt was
// raised: the run stopped at an inter-cycle point after shipping a final
// snapshot through Sink, and holds no result. It signals a graceful drain,
// not a failure.
var ErrCheckpointed = errors.New("sim: run checkpointed before completion")

// CheckpointOptions configures mid-run snapshots for one simulation.
// Snapshots are taken only at the sequential inter-cycle point (top of the
// cycle loop), so they never perturb the sharded phases, and a restored run
// is bit-identical to an uninterrupted one for any worker count and either
// activity setting.
type CheckpointOptions struct {
	// Every ships a snapshot when at least this much wall-clock time has
	// passed since the last one (checked every few cycles). Zero disables
	// wall-clock checkpointing.
	Every time.Duration
	// EveryCycles ships a snapshot when at least this many simulated cycles
	// have passed since the last one. Zero disables cycle checkpointing.
	// Tests use this for deterministic checkpoint placement.
	EveryCycles int64
	// SpecHash is folded into the snapshot header and verified on resume, so
	// a checkpoint can never be applied to a different job spec. Empty is
	// allowed (and matches only empty).
	SpecHash string
	// Resume, when non-empty, restores the engine from this snapshot before
	// the first cycle instead of starting from zero.
	Resume []byte
	// Sink receives each encoded snapshot (checksum trailer included). A nil
	// Sink disables snapshot shipping; a Sink error aborts the run.
	Sink func(snapshot []byte) error
	// Interrupt, when non-nil and set, makes the run stop at the next
	// inter-cycle point: it ships a final snapshot through Sink and returns
	// ErrCheckpointed. This is the graceful-drain hook of the worker's
	// SIGTERM handler.
	Interrupt *atomic.Bool
}

// burstMaxCycles is the burst-mode cycle budget of a run (the RunOptions
// default rule), shared by runBurst and the snapshot header validation.
func burstMaxCycles(o RunOptions) int64 {
	maxCycles := o.MaxCycles
	if maxCycles == 0 {
		maxCycles = 100 * (o.WarmupCycles + o.MeasureCycles)
		if maxCycles < 10_000_000 {
			maxCycles = 10_000_000
		}
	}
	return maxCycles
}

// packetSnap is the serialized form of one pool entry. The pool is captured
// verbatim including free entries: a recycled packet inherits whatever stale
// fields the original run would have seen, so packet ids and pool growth
// stay bit-identical after a restore.
type packetSnap struct {
	Birth    int64
	DstLocal int16
	InWindow bool
	St       routing.PacketState
}

// eventSnap is the serialized form of one calendar-wheel event.
type eventSnap struct {
	Kind int8
	VC   int8
	A    int32
	Pkt  int32
}

// inRelSnap is the serialized form of one pending input-port release: the
// port gets a crossbar slot back at cycle At. The engine keeps no such list
// any more — the release rides the evCredit of the same grant — so the
// entries are derived from the wheel (pendingInRels).
type inRelSnap struct {
	At   int64
	Port int32
}

// arrivalSnap is the serialized form of one arrival-calendar entry.
type arrivalSnap struct {
	At     int64
	Server int32
}

// snapshotState is the complete serializable engine state: the flat,
// enumerable serialization surface of a run paused at the inter-cycle
// point. Ring buffers are flattened in pop order, the calendar wheel slot
// by slot (valid because the header pins horizon and now), and the two RNG
// families as raw xoshiro256** state words so restored streams resume
// mid-sequence. The codeccoverage analyzer holds the codec's walk to
// every field of this struct, and captureSnapshot and applySnapshot to
// every field of the engine itself.
type snapshotState struct {
	// Self-check header: a snapshot can never be resumed against the wrong
	// format, engine semantics, spec, seed, topology shape or Table 2 point.
	Magic              string
	Engine             string
	SpecHash           string
	Seed               uint64
	S, R, K, P, V      int64
	Horizon            int64
	WarmStart, WarmEnd int64
	Burst              int64
	Legacy             bool // hyperx-ckpt/1's legacy-generation byte: written 0, refused as 1
	CfgInputBufPkts    int64
	CfgOutputBufPkts   int64
	CfgPacketPhits     int64
	CfgLinkLatency     int64
	CfgXbarLatency     int64
	CfgXbarSpeedup     int64
	CfgInjQueuePkts    int64
	CfgPenaltyWeight   float64

	// Time, progress and cumulative scalars.
	Now, LastProgress, InFlight               int64
	TotalDelivered, LostPkts, StalledGenPkts  int64
	NextFault                                 int64
	LiveDirLinks, LinkBusyCycles              int64
	DeliveredPkts, DeliveredPhits, LatencySum int64
	HopSum, EscapedPkts, LastDeliveryCycle    int64

	// RNG streams: raw state words (4 per stream), not seeds.
	GenRNG []uint64 // generation stream
	TieRNG []uint64 // per-switch tie-break streams, 4 words each

	// Ports and mid-run fault effects.
	PortDead   []bool
	PQOutTotal []int16
	PQCredSum  []int16
	PQDnInVC   []int32

	// Input side.
	InQLens     []int32 // per input VC
	InQData     []int32 // flattened in pop order
	InBusyUntil []int64
	Credits     []int16
	InInflight  []int8
	InOcc       []int8
	InMask      []uint64
	OutMask     []uint64

	// Output side.
	OutQLens    []int32 // per global port
	OutQPkt     []int32 // flattened in pop order
	OutQVC      []int8
	OutReserved []int16
	OutVCCount  []int16
	OutBusy     []int64
	OutInflight []int8

	// Servers.
	InjQLens []int32
	InjQData []int32
	InjBusy  []int64

	// Packet pool, verbatim.
	Pool []packetSnap
	Free []int32

	// Calendar wheel, slot by slot.
	EventLens []int32
	Events    []eventSnap

	// Pending input-port releases, per switch.
	InRelLens []int32
	InRels    []inRelSnap

	// Per-switch queued-packet refinement counters.
	SwInPkts  []int32
	SwOutPkts []int32
	SwInjPkts []int32

	// Cumulative per-switch window counters.
	WinDeliveredPkts  []int64
	WinDeliveredPhits []int64
	WinLatencySum     []int64
	WinHopSum         []int64
	WinEscapedPkts    []int64
	WinLinkBusy       []int64
	WinLastDelivery   []int64
	GenPhits          []int64

	// Open-loop arrival calendar, heap layout verbatim (heapify order is
	// deterministic, so preserving the array preserves the pop sequence).
	ArrQ               []arrivalSnap
	GenProb            float64
	LogOneMinusGenProb float64

	// Throughput series, including the open bucket.
	HasSeries       bool
	SeriesBucket    int64
	SeriesServers   int64
	SeriesCur       int64
	SeriesCurBucket int64
	SeriesPoints    []metrics.SeriesPoint
}

// captureSnapshot packs the engine into a snapshotState. It must be called
// at the sequential inter-cycle point (top of the cycle loop), where the
// per-cycle staging and merge counters are provably empty — asserted here,
// because a snapshot that silently dropped staged work would resume to
// diverging results. The exempt engine fields (see the codeccoverage
// registry) are exactly the ones a restore reconstructs: the network, the
// mechanism and pattern, the worker pool and scratch, the activity
// bookkeeping, and the asserted-empty staging.
func (e *engine) captureSnapshot(o RunOptions) *snapshotState {
	for sw := 0; sw < e.S; sw++ {
		if len(e.outbox[sw]) != 0 || len(e.freed[sw]) != 0 ||
			e.swRetired[sw] != 0 || e.swDelivered[sw] != 0 || e.swLost[sw] != 0 ||
			e.swSeriesPhits[sw] != 0 || e.swProgressed[sw] {
			panic(fmt.Sprintf("sim: snapshot of switch %d taken outside the inter-cycle point at cycle %d", sw, e.now))
		}
	}

	genState := e.r.State()
	tieRNG := make([]uint64, 0, 4*len(e.tie))
	for sw := range e.tie {
		s := e.tie[sw].State()
		tieRNG = append(tieRNG, s[0], s[1], s[2], s[3])
	}

	pqOut := make([]int16, len(e.pq))
	pqCred := make([]int16, len(e.pq))
	pqDn := make([]int32, len(e.pq))
	for i, p := range e.pq {
		pqOut[i] = p.outTotal
		pqCred[i] = p.credSum
		pqDn[i] = e.snapDnInVC(i, false)
	}
	credits := make([]int16, len(e.credits))
	e.creditsAcrossLinks(credits, e.credits)

	inQLens, inQData, _ := e.inQ.flatten()
	outQLens, outQPkt, outQVC := e.outQ.flatten()
	injQLens, injQData, _ := e.injQ.flatten()

	pool := make([]packetSnap, len(e.pool))
	for i, p := range e.pool {
		pool[i] = packetSnap{Birth: p.birth, DstLocal: p.dstLocal, InWindow: p.inWindow, St: p.st}
	}

	eventLens := make([]int32, len(e.events))
	var evs []eventSnap
	for i, slot := range e.events {
		eventLens[i] = int32(len(slot))
		for _, ev := range slot {
			evs = append(evs, eventSnap{Kind: ev.kind, VC: ev.vc, A: ev.a, Pkt: ev.pkt})
		}
	}

	relLens, rels := pendingInRels(e.now, e.horizon, e.V, eventLens, evs)

	arr := make([]arrivalSnap, len(e.arrQ))
	for i, a := range e.arrQ {
		arr[i] = arrivalSnap{At: a.at, Server: a.server}
	}

	var series metrics.SeriesState
	hasSeries := e.series != nil
	if hasSeries {
		series = e.series.State()
	}

	specHash := ""
	if o.Checkpoint != nil {
		specHash = o.Checkpoint.SpecHash
	}

	return &snapshotState{
		Magic:    SnapshotVersion,
		Engine:   EngineVersion,
		SpecHash: specHash,
		Seed:     o.Seed,
		S:        int64(e.S), R: int64(e.R), K: int64(e.K), P: int64(e.P), V: int64(e.V),
		Horizon:   e.horizon,
		WarmStart: e.warmStart, WarmEnd: e.warmEnd,
		Burst: int64(o.BurstPackets),

		CfgInputBufPkts:  int64(e.cfg.InputBufPkts),
		CfgOutputBufPkts: int64(e.cfg.OutputBufPkts),
		CfgPacketPhits:   int64(e.cfg.PacketPhits),
		CfgLinkLatency:   int64(e.cfg.LinkLatency),
		CfgXbarLatency:   int64(e.cfg.XbarLatency),
		CfgXbarSpeedup:   int64(e.cfg.XbarSpeedup),
		CfgInjQueuePkts:  int64(e.cfg.InjQueuePkts),
		CfgPenaltyWeight: e.cfg.PenaltyWeight,

		Now: e.now, LastProgress: e.lastProgress, InFlight: e.inFlight,
		TotalDelivered: e.totalDelivered, LostPkts: e.lostPkts, StalledGenPkts: e.stalledGenPkts,
		NextFault:    int64(e.nextFault),
		LiveDirLinks: e.liveDirLinks, LinkBusyCycles: e.linkBusyCycles,
		DeliveredPkts: e.deliveredPkts, DeliveredPhits: e.deliveredPhits, LatencySum: e.latencySum,
		HopSum: e.hopSum, EscapedPkts: e.escapedPkts, LastDeliveryCycle: e.lastDeliveryCycle,

		GenRNG: genState[:],
		TieRNG: tieRNG,

		PortDead:   e.portDead,
		PQOutTotal: pqOut,
		PQCredSum:  pqCred,
		PQDnInVC:   pqDn,

		InQLens:     inQLens,
		InQData:     inQData,
		InBusyUntil: e.inBusyUntil,
		Credits:     credits,
		InInflight:  e.inInflight,
		InOcc:       e.inOcc,
		InMask:      e.inMask,
		OutMask:     e.outMask,

		OutQLens:    outQLens,
		OutQPkt:     outQPkt,
		OutQVC:      outQVC,
		OutReserved: e.outReserved,
		OutVCCount:  e.outVCCount,
		OutBusy:     e.outBusy,
		OutInflight: e.outInflight,

		InjQLens: injQLens,
		InjQData: injQData,
		InjBusy:  e.injBusy,

		Pool: pool,
		Free: e.free,

		EventLens: eventLens,
		Events:    evs,

		InRelLens: relLens,
		InRels:    rels,

		SwInPkts:  e.swInPkts,
		SwOutPkts: e.swOutPkts,
		SwInjPkts: e.swInjPkts,

		WinDeliveredPkts:  e.winDeliveredPkts,
		WinDeliveredPhits: e.winDeliveredPhits,
		WinLatencySum:     e.winLatencySum,
		WinHopSum:         e.winHopSum,
		WinEscapedPkts:    e.winEscapedPkts,
		WinLinkBusy:       e.winLinkBusy,
		WinLastDelivery:   e.winLastDelivery,
		GenPhits:          e.genPhits,

		ArrQ:               arr,
		GenProb:            e.genProb,
		LogOneMinusGenProb: e.logOneMinusGenProb,

		HasSeries:       hasSeries,
		SeriesBucket:    series.Bucket,
		SeriesServers:   series.Servers,
		SeriesCur:       series.Cur,
		SeriesCurBucket: series.CurBucket,
		SeriesPoints:    series.Points,
	}
}

// encodeSnapshot serializes the engine at the inter-cycle point: the binary
// snapshotState body followed by a SHA-256 checksum trailer, so a torn or
// truncated file is detected on restore instead of resuming corrupt state.
func (e *engine) encodeSnapshot(o RunOptions) []byte {
	return wire.Seal(appendSnapshotState(nil, e.captureSnapshot(o)))
}

// restoreSnapshot verifies and applies an encodeSnapshot buffer to a
// freshly constructed engine. All rejection paths wrap ErrBadSnapshot.
func (e *engine) restoreSnapshot(snap []byte, o RunOptions) error {
	body, ok := wire.Open(snap)
	if !ok {
		return fmt.Errorf("%w: %d bytes fail the checksum trailer (torn or corrupt checkpoint)", ErrBadSnapshot, len(snap))
	}
	st, err := decodeSnapshotState(body)
	if err != nil {
		return err
	}
	return e.applySnapshot(st, o)
}

// creditsAcrossLinks copies a credit ledger between the engine's order, by
// sender (gport, vc), and the order hyperx-ckpt/1 stores, by the input VC
// the credits are for: dst[gp*V+vc] = src[up[gp]*V+vc]. up is its own
// inverse, so the same copy converts either way.
func (e *engine) creditsAcrossLinks(dst, src []int16) {
	V := e.V
	for gp, u := range e.up {
		copy(dst[gp*V:(gp+1)*V], src[int(u)*V:(int(u)+1)*V])
	}
}

// flatten lists every ring of the set in pop order: per-ring lengths, the
// entries back to back and, for a tagged set, their VCs alongside.
func (r *ringSet) flatten() (lens, data []int32, tags []int8) {
	lens = make([]int32, len(r.hdr))
	for i := range lens {
		n := r.len(int32(i))
		lens[i] = int32(n)
		for j := 0; j < n; j++ {
			data = append(data, r.at(int32(i), j))
			if r.tag != nil {
				tags = append(tags, r.tag[r.slot(int32(i), j)])
			}
		}
	}
	return lens, data, tags
}

// load is the inverse of flatten: every ring is reset and refilled. The
// caller has checked lens against the capacity and the data lengths.
func (r *ringSet) load(lens, data []int32, tags []int8) {
	cursor := 0
	for i, n := range lens {
		r.reset(int32(i))
		for ; n > 0; n-- {
			k := r.pushSlot(int32(i))
			r.buf[k] = data[cursor]
			if tags != nil {
				r.tag[k] = tags[cursor]
			}
			cursor++
		}
	}
}

// pendingInRels derives the two release fields of hyperx-ckpt/1 — per
// switch, the pending input-port releases as (cycle, port) — from a wheel
// captured at cycle now. A release is the inInflight decrement of a pending
// evCredit, so the list of a switch is its evCredits walked by cycle and,
// within a cycle, by position in the slot: a slot's evCredits all come from
// the commit one transfer time earlier, in grant order, which is the order
// engines that kept the list appended to it.
func pendingInRels(now, horizon int64, V int, eventLens []int32, events []eventSnap) ([]int32, []inRelSnap) {
	start := make([]int, len(eventLens)+1)
	for i, n := range eventLens {
		start[i+1] = start[i] + int(n)
	}
	lens := make([]int32, int64(len(eventLens))/horizon)
	var rels []inRelSnap
	for sw := range lens {
		for t := now; t < now+horizon; t++ {
			slot := int64(sw)*horizon + t%horizon
			for _, ev := range events[start[slot]:start[slot+1]] {
				if ev.Kind == evCredit {
					rels = append(rels, inRelSnap{At: t, Port: ev.A / int32(V)})
					lens[sw]++
				}
			}
		}
	}
	return lens, rels
}

// snapDnInVC is the word hyperx-ckpt/1 stores per port as PQDnInVC, which
// engines before the sender-indexed ledger kept: the first input VC a live
// link port sends into, -1 for a server port and for a link port that is
// down — failedMidRun, or in the network's fault set.
func (e *engine) snapDnInVC(gp int, failedMidRun bool) int32 {
	sw, p := gp/e.P, gp%e.P
	if p >= e.R || failedMidRun || !e.nw.PortAlive(int32(sw), p) {
		return -1
	}
	return e.up[gp] * int32(e.V)
}

// applySnapshot validates a decoded snapshot against this engine and run,
// then installs it. The engine must be freshly constructed by newEngine for
// the same RunOptions the snapshot was taken under (same network with its
// static fault set, mechanism, pattern, seed): the snapshot carries no
// topology or routing tables, only the mutable simulation state, and this
// replays the mid-run fault edges the original run had applied (one BFS
// rebuild) before handing the engine back. Header or shape mismatches wrap
// ErrBadSnapshot; nothing is partially installed before validation passes.
func (e *engine) applySnapshot(st *snapshotState, o RunOptions) error {
	badf := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	if st.Magic != SnapshotVersion {
		return badf("format %q, want %q", st.Magic, SnapshotVersion)
	}
	if st.Engine != EngineVersion {
		return badf("engine %q, want %q", st.Engine, EngineVersion)
	}
	specHash := ""
	if o.Checkpoint != nil {
		specHash = o.Checkpoint.SpecHash
	}
	if st.SpecHash != specHash {
		return badf("spec hash %q, want %q", st.SpecHash, specHash)
	}
	if st.Seed != o.Seed {
		return badf("seed %d, want %d", st.Seed, o.Seed)
	}
	if st.Legacy {
		return badf("written by the retired legacy-generation engine")
	}
	if st.S != int64(e.S) || st.R != int64(e.R) || st.K != int64(e.K) ||
		st.P != int64(e.P) || st.V != int64(e.V) {
		return badf("topology shape S=%d R=%d K=%d P=%d V=%d, want S=%d R=%d K=%d P=%d V=%d",
			st.S, st.R, st.K, st.P, st.V, e.S, e.R, e.K, e.P, e.V)
	}
	if st.Horizon != e.horizon {
		return badf("horizon %d, want %d", st.Horizon, e.horizon)
	}
	if st.CfgInputBufPkts != int64(e.cfg.InputBufPkts) ||
		st.CfgOutputBufPkts != int64(e.cfg.OutputBufPkts) ||
		st.CfgPacketPhits != int64(e.cfg.PacketPhits) ||
		st.CfgLinkLatency != int64(e.cfg.LinkLatency) ||
		st.CfgXbarLatency != int64(e.cfg.XbarLatency) ||
		st.CfgXbarSpeedup != int64(e.cfg.XbarSpeedup) ||
		st.CfgInjQueuePkts != int64(e.cfg.InjQueuePkts) ||
		st.CfgPenaltyWeight != e.cfg.PenaltyWeight {
		return badf("microarchitecture config differs from the run's")
	}
	if st.Burst != int64(o.BurstPackets) {
		return badf("burst %d, want %d", st.Burst, o.BurstPackets)
	}
	wantWS, wantWE := o.WarmupCycles, o.WarmupCycles+o.MeasureCycles
	if o.BurstPackets > 0 {
		wantWS, wantWE = 0, burstMaxCycles(o)+1
	}
	if st.WarmStart != wantWS || st.WarmEnd != wantWE {
		return badf("window [%d,%d), want [%d,%d)", st.WarmStart, st.WarmEnd, wantWS, wantWE)
	}

	SP := e.S * e.P
	nServers := e.S * e.K
	if len(st.GenRNG) != 4 || len(st.TieRNG) != 4*e.S {
		return badf("RNG state words %d+%d, want 4+%d", len(st.GenRNG), len(st.TieRNG), 4*e.S)
	}
	if len(st.PortDead) != SP || len(st.PQOutTotal) != SP || len(st.PQCredSum) != SP ||
		len(st.PQDnInVC) != SP || len(st.OutQLens) != SP || len(st.OutReserved) != SP ||
		len(st.OutBusy) != SP || len(st.OutInflight) != SP ||
		len(st.InInflight) != SP || len(st.InOcc) != SP {
		return badf("per-port array lengths do not match %d global ports", SP)
	}
	if len(st.InQLens) != SP*e.V || len(st.InBusyUntil) != SP*e.V ||
		len(st.Credits) != SP*e.V || len(st.OutVCCount) != SP*e.V {
		return badf("per-VC array lengths do not match %d input VCs", SP*e.V)
	}
	wantMask := 0
	if e.P <= 64 {
		wantMask = e.S
	}
	if len(st.InMask) != wantMask || len(st.OutMask) != wantMask {
		return badf("mask lengths %d+%d, want %d", len(st.InMask), len(st.OutMask), wantMask)
	}
	if len(st.InjQLens) != nServers || len(st.InjBusy) != nServers || len(st.GenPhits) != nServers {
		return badf("per-server array lengths do not match %d servers", nServers)
	}
	if len(st.EventLens) != int(int64(e.S)*e.horizon) {
		return badf("event wheel has %d slots, want %d", len(st.EventLens), int64(e.S)*e.horizon)
	}
	if len(st.InRelLens) != e.S || len(st.SwInPkts) != e.S || len(st.SwOutPkts) != e.S ||
		len(st.SwInjPkts) != e.S || len(st.WinDeliveredPkts) != e.S ||
		len(st.WinDeliveredPhits) != e.S || len(st.WinLatencySum) != e.S ||
		len(st.WinHopSum) != e.S || len(st.WinEscapedPkts) != e.S ||
		len(st.WinLinkBusy) != e.S || len(st.WinLastDelivery) != e.S {
		return badf("per-switch array lengths do not match %d switches", e.S)
	}
	sumLens := func(lens []int32, capacity int) (int, error) {
		total := 0
		for _, n := range lens {
			if n < 0 || (capacity > 0 && int(n) > capacity) {
				return 0, badf("ring length %d exceeds capacity %d", n, capacity)
			}
			total += int(n)
		}
		return total, nil
	}
	injCap := max(e.cfg.InjQueuePkts, o.BurstPackets)
	if n, err := sumLens(st.InQLens, e.cfg.InputBufPkts); err != nil {
		return err
	} else if n != len(st.InQData) {
		return badf("input rings hold %d packets, data has %d", n, len(st.InQData))
	}
	if n, err := sumLens(st.OutQLens, e.cfg.OutputBufPkts); err != nil {
		return err
	} else if n != len(st.OutQPkt) || len(st.OutQPkt) != len(st.OutQVC) {
		return badf("output rings hold %d packets, data has %d+%d", n, len(st.OutQPkt), len(st.OutQVC))
	}
	if n, err := sumLens(st.InjQLens, injCap); err != nil {
		return err
	} else if n != len(st.InjQData) {
		return badf("injection rings hold %d packets, data has %d", n, len(st.InjQData))
	}
	if n, err := sumLens(st.EventLens, 0); err != nil {
		return err
	} else if n != len(st.Events) {
		return badf("event wheel holds %d events, data has %d", n, len(st.Events))
	}
	if st.Now < 0 {
		return badf("cycle %d is negative", st.Now)
	}
	if lens, rels := pendingInRels(st.Now, e.horizon, e.V, st.EventLens, st.Events); !slices.Equal(lens, st.InRelLens) || !slices.Equal(rels, st.InRels) {
		return badf("pending input-port releases disagree with the %d evCredit events on the wheel", len(rels))
	}
	if st.NextFault < 0 || st.NextFault > int64(len(e.faultSchedule)) {
		return badf("fault cursor %d outside schedule of %d events", st.NextFault, len(e.faultSchedule))
	}
	for gp, dn := range st.PQDnInVC {
		if want := e.snapDnInVC(gp, st.PortDead[gp]); dn != want {
			return badf("port %d sends into input VC %d, this network says %d", gp, dn, want)
		}
	}
	if st.InFlight != int64(len(st.Pool)-len(st.Free)) {
		return badf("in-flight count %d, pool says %d", st.InFlight, len(st.Pool)-len(st.Free))
	}
	wantArr := 0
	if o.BurstPackets == 0 {
		wantArr = nServers
	}
	if len(st.ArrQ) != wantArr {
		return badf("arrival calendar holds %d servers, want %d", len(st.ArrQ), wantArr)
	}
	if st.HasSeries != (o.SeriesBucket > 0) {
		return badf("series presence %v, want %v", st.HasSeries, o.SeriesBucket > 0)
	}

	// Validation passed: install. Scalars first.
	e.now = st.Now
	e.lastProgress = st.LastProgress
	e.inFlight = st.InFlight
	e.totalDelivered = st.TotalDelivered
	e.lostPkts = st.LostPkts
	e.stalledGenPkts = st.StalledGenPkts
	e.nextFault = int(st.NextFault)
	e.liveDirLinks = st.LiveDirLinks
	e.linkBusyCycles = st.LinkBusyCycles
	e.deliveredPkts = st.DeliveredPkts
	e.deliveredPhits = st.DeliveredPhits
	e.latencySum = st.LatencySum
	e.hopSum = st.HopSum
	e.escapedPkts = st.EscapedPkts
	e.lastDeliveryCycle = st.LastDeliveryCycle
	e.warmStart, e.warmEnd = st.WarmStart, st.WarmEnd

	e.r.SetState([4]uint64(st.GenRNG[:4]))
	for sw := range e.tie {
		e.tie[sw].SetState([4]uint64(st.TieRNG[4*sw : 4*sw+4]))
	}

	copy(e.portDead, st.PortDead)
	for i := range e.pq {
		e.pq[i].outTotal = st.PQOutTotal[i]
		e.pq[i].credSum = st.PQCredSum[i]
	}

	e.inQ.load(st.InQLens, st.InQData, nil)
	copy(e.inBusyUntil, st.InBusyUntil)
	e.creditsAcrossLinks(e.credits, st.Credits)
	copy(e.inInflight, st.InInflight)
	copy(e.inOcc, st.InOcc)
	copy(e.inMask, st.InMask)
	copy(e.outMask, st.OutMask)

	e.outQ.load(st.OutQLens, st.OutQPkt, st.OutQVC)
	copy(e.outReserved, st.OutReserved)
	copy(e.outVCCount, st.OutVCCount)
	copy(e.outBusy, st.OutBusy)
	copy(e.outInflight, st.OutInflight)

	e.injQ.load(st.InjQLens, st.InjQData, nil)
	copy(e.injBusy, st.InjBusy)

	e.pool = e.pool[:0]
	for _, p := range st.Pool {
		e.pool = append(e.pool, packet{birth: p.Birth, dstLocal: p.DstLocal, inWindow: p.InWindow, st: p.St})
	}
	e.free = append(e.free[:0], st.Free...)

	cursor := 0
	for i := range e.events {
		e.events[i] = e.events[i][:0]
		for j := 0; j < int(st.EventLens[i]); j++ {
			ev := st.Events[cursor]
			cursor++
			e.events[i] = append(e.events[i], event{kind: ev.Kind, vc: ev.VC, a: ev.A, pkt: ev.Pkt})
		}
	}

	copy(e.swInPkts, st.SwInPkts)
	copy(e.swOutPkts, st.SwOutPkts)
	copy(e.swInjPkts, st.SwInjPkts)
	copy(e.winDeliveredPkts, st.WinDeliveredPkts)
	copy(e.winDeliveredPhits, st.WinDeliveredPhits)
	copy(e.winLatencySum, st.WinLatencySum)
	copy(e.winHopSum, st.WinHopSum)
	copy(e.winEscapedPkts, st.WinEscapedPkts)
	copy(e.winLinkBusy, st.WinLinkBusy)
	copy(e.winLastDelivery, st.WinLastDelivery)
	copy(e.genPhits, st.GenPhits)

	e.genProb = st.GenProb
	e.logOneMinusGenProb = st.LogOneMinusGenProb
	if len(st.ArrQ) > 0 {
		e.arrQ = make([]arrival, len(st.ArrQ))
		for i, a := range st.ArrQ {
			e.arrQ[i] = arrival{at: a.At, server: a.Server}
		}
	}

	if st.HasSeries {
		e.series = metrics.RestoreThroughputSeries(metrics.SeriesState{
			Bucket:    st.SeriesBucket,
			Servers:   st.SeriesServers,
			Cur:       st.SeriesCur,
			CurBucket: st.SeriesCurBucket,
			Points:    st.SeriesPoints,
		})
	}

	// Replay the fault edges the original run had applied. failLink's drain
	// side effects (dead ports, lost packets, drained output rings, the
	// link count) are already in the serialized state, so only the fault
	// set and the routing tables need reconstructing.
	for i := 0; i < int(st.NextFault); i++ {
		ev := e.faultSchedule[i]
		e.nw.Faults.Add(ev.Edge.U, ev.Edge.V)
	}
	if st.NextFault > 0 {
		if err := e.mech.Rebuild(e.nw); err != nil {
			return fmt.Errorf("sim: table rebuild on snapshot restore: %w", err)
		}
	}

	e.rebuildActivity()
	return nil
}

// rebuildActivity reconstructs the activity bookkeeping after a restore by
// conservatively booking every switch that holds any work for a visit at
// the restored cycle. Snapshots deliberately carry NO activity state — the
// wheel, the due list and the four next-work components are derived
// bookkeeping — which is what makes a snapshot independent of the worker
// count and the activity setting of both the run that took it and the run
// that resumes it.
//
// Correctness of the conservative booking: visiting a switch early is
// always safe (the parked-switch skip proof runs in both directions — an
// extra visit to a switch whose real work lies in the future mutates
// nothing and draws no randomness), and on that first due visit every phase
// recomputes its own next-work component exactly (the event phase rescans
// the wheel, inject/allocate/transmit re-derive their retries), so the end-of-cycle compaction refolds the
// exact next-work time and the engine is back on the uninterrupted run's
// trajectory. The CheckInvariants audits only run after a full cycle, when
// the components are exact again.
func (e *engine) rebuildActivity() {
	if e.act == nil {
		return
	}
	a := newActivityState(e.S, e.horizon+2)
	e.act = a
	for sw := 0; sw < e.S; sw++ {
		var evn int32
		base := int64(sw) * e.horizon
		for s := int64(0); s < e.horizon; s++ {
			evn += int32(len(e.events[base+s]))
		}
		qn := e.swInPkts[sw] + e.swOutPkts[sw] + e.swInjPkts[sw]
		a.evWork[sw] = evn
		a.quWork[sw] = qn
		if evn+qn == 0 {
			continue // quiescent: stays parked at nwNever, unbooked
		}
		if evn > 0 {
			a.evNext[sw] = e.now
		}
		if e.swInPkts[sw] > 0 {
			a.inRetry[sw] = e.now
		}
		if e.swOutPkts[sw] > 0 {
			a.outRetry[sw] = e.now
		}
		if e.swInjPkts[sw] > 0 {
			a.injRetry[sw] = e.now
		}
		a.nextWork[sw] = e.now
		a.schedule(int32(sw), e.now, e.now)
	}
}

// ckptClock tracks when the next periodic snapshot is owed; one per run
// loop, advanced by maybeCheckpoint.
type ckptClock struct {
	lastWall  time.Time
	lastCycle int64
	iter      int64
}

func newCkptClock(now int64) ckptClock {
	return ckptClock{lastWall: time.Now(), lastCycle: now}
}

// maybeCheckpoint runs at the top of each cycle-loop iteration (the
// sequential inter-cycle point). It ships a snapshot through Sink when the
// cycle or wall-clock interval has elapsed, and — when Interrupt is raised
// — ships a final snapshot and stops the run with ErrCheckpointed.
// Capturing a snapshot never mutates engine state, so periodic
// checkpointing cannot perturb results, and the wall-clock trigger (checked
// only every 64 iterations to keep it off the hot path) costs nothing in
// determinism.
func (e *engine) maybeCheckpoint(c *ckptClock, o RunOptions) error {
	ck := o.Checkpoint
	if ck == nil || ck.Sink == nil {
		return nil
	}
	if ck.Interrupt != nil && ck.Interrupt.Load() {
		if err := ck.Sink(e.encodeSnapshot(o)); err != nil {
			return err
		}
		return ErrCheckpointed
	}
	ship := ck.EveryCycles > 0 && e.now-c.lastCycle >= ck.EveryCycles
	if !ship && ck.Every > 0 {
		if c.iter++; c.iter&63 == 0 && time.Since(c.lastWall) >= ck.Every {
			ship = true
		}
	}
	if !ship {
		return nil
	}
	c.lastCycle = e.now
	c.lastWall = time.Now()
	return ck.Sink(e.encodeSnapshot(o))
}
