package sim

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// SnapshotVersion tags the mid-run checkpoint format. It versions the
// serialization layout and the set of engine fields it captures,
// independently of EngineVersion (which tags simulation semantics): adding
// or reordering snapshot fields bumps hyperx-ckpt/N and orphans old
// checkpoint files, while results, spec hashes and the queue handshake are
// untouched. A checkpoint is only ever an optimization — losing one costs a
// restart from zero, never a wrong result.
//
// hyperx-ckpt/7 carries primary state only, each fact once. A field of the
// engine is NOT in the format when auditPorts states it as an exact
// function of fields that are — the occupancy masks and the packed
// allocation words of the rings and the ledger; the calendar words, the
// crossbar counts (inInflight, pq.outTotal) and outVCCount of the calendar
// slots and the output-ring tags — or when the run fixes it: the fault
// cursor and the dead ports (the schedule's faults before Now), the
// arrival sampling constant (the load), the measurement window, whether a
// throughput series is kept, its bucket and over how many servers (the
// run's options and the server count). A restore rebuilds those
// (markLinkDead, rebuildDerived) and then audits the result (auditPorts)
// instead of trusting what a file or a peer says they are. Nor does the
// format restate what it already pins: the codec byte is the format, the
// lengths of the per-switch, per-port, per-VC, per-server and calendar
// arrays are the shape (S, P, V, K and the horizon), one identity line
// (runIdentity) is the run, a burst's delivered count is the preload less
// the lost packets and the live ones, which the free list counts, and the
// throughput series is its per-bucket phit counts: a bucket's cycle and
// accepted load are the bucket width's arithmetic, and its length says
// which bucket is open.
const SnapshotVersion = "hyperx-ckpt/7"

// snapshotCodecVersion is the leading byte of the binary layout, mirroring
// resultCodecVersion. It moves with SnapshotVersion, so a file of an
// earlier format (hyperx-ckpt/1 to /6) is refused at its first byte.
const snapshotCodecVersion = 7

// ErrBadSnapshot is returned (wrapped) when a checkpoint fails its checksum,
// decodes inconsistently, or does not match the run it is being resumed
// against. Callers treat it as "no usable checkpoint" and restart from zero.
var ErrBadSnapshot = errors.New("sim: bad snapshot")

// ErrSnapshotTrailer is wrapped beside ErrBadSnapshot when a checkpoint
// inflates but fails its checksum trailer: the file is torn or corrupt,
// not of another format or run. Its text continues ErrBadSnapshot's
// ("sim: bad snapshot: N bytes fail the checksum trailer ...").
var ErrSnapshotTrailer = errors.New("fail the checksum trailer (torn or corrupt checkpoint)")

// ErrCheckpointed is returned by Run when CheckpointOptions.Interrupt was
// raised: the run stopped at an inter-cycle point after shipping a final
// snapshot through Sink, and holds no result. It signals a graceful drain,
// not a failure.
var ErrCheckpointed = errors.New("sim: run checkpointed before completion")

// CheckpointOptions configures mid-run snapshots for one simulation.
// Snapshots are taken only at the sequential inter-cycle point (top of the
// cycle loop), so they never perturb the sharded phases, and a restored run
// is bit-identical to an uninterrupted one for any worker count.
type CheckpointOptions struct {
	// Every ships a snapshot when at least this much wall-clock time has
	// passed since the last one (checked every few cycles). Zero disables
	// wall-clock checkpointing.
	Every time.Duration
	// EveryCycles ships a snapshot when at least this many simulated cycles
	// have passed since the last one. Zero disables cycle checkpointing.
	// Tests use this for deterministic checkpoint placement.
	EveryCycles int64
	// SpecHash is folded into the snapshot's run identity and verified on
	// resume, so a checkpoint can never be applied to a different job spec.
	// Empty is allowed (and matches only empty).
	SpecHash string
	// Resume, when non-empty, restores the engine from this snapshot before
	// the first cycle instead of starting from zero. It takes the bytes a
	// Sink received, as they were; the run refuses anything else with
	// ErrBadSnapshot.
	Resume []byte
	// Sink receives each snapshot in the one form a checkpoint has outside
	// this package: gzip over the encoding and its checksum trailer. Callers
	// store and ship those bytes as they are; only Resume reads them. A nil
	// Sink disables snapshot shipping. It runs on a goroutine of its own,
	// off the cycle loop, one call at a time and in capture order, and the
	// last call has returned before Run does. A Sink error aborts the run:
	// Run returns it at the next snapshot or when the loop ends, whichever
	// comes first.
	Sink func(snapshot []byte) error
	// Interrupt, when non-nil and set, makes the run stop at the next
	// inter-cycle point: it ships a final snapshot through Sink and returns
	// ErrCheckpointed. This is the graceful-drain hook of the worker's
	// SIGTERM handler.
	Interrupt *atomic.Bool
}

// runIdentity is the one statement of which run a snapshot belongs to,
// written at capture and compared whole on restore: the engine semantics,
// the job spec, the seed, the burst size, the offered load, the measurement
// window, the series bucket and the Table 2 microarchitecture. It leaves
// out what the snapshot's array lengths pin (the topology shape) and what
// never moves a result (the worker count, the watchdog, the audits, the
// checkpoint triggers), so a resume may differ in those. The two floats
// are written as their IEEE bit patterns: they must match bit for bit.
func runIdentity(o RunOptions) string {
	specHash := ""
	if o.Checkpoint != nil {
		specHash = o.Checkpoint.SpecHash
	}
	start, end := measureWindow(o)
	c := o.Config
	return fmt.Sprintf("%s spec=%q seed=%d burst=%d load=%#x window=[%d,%d) series=%d "+
		"inbuf=%d outbuf=%d phits=%d link=%d xbar=%d speedup=%d injq=%d penalty=%#x",
		EngineVersion, specHash, o.Seed, o.BurstPackets, math.Float64bits(o.Load), start, end, max(o.SeriesBucket, 0),
		c.InputBufPkts, c.OutputBufPkts, c.PacketPhits, c.LinkLatency, c.XbarLatency, c.XbarSpeedup, c.InjQueuePkts,
		math.Float64bits(c.PenaltyWeight))
}

// snapshotState is the primary state of a run paused at the inter-cycle
// point, flat and enumerable (what is left out, and why, is at
// SnapshotVersion): one identity line, then the 25 fields only the run
// itself could have produced. Ring buffers are flattened in pop order, the
// calendar wheel slot by slot (valid because its length pins the horizon
// and Now the cycle), the credit ledger in engine order (by sender), and the
// two RNG families as raw xoshiro256** state words so restored streams
// resume mid-sequence. The packet pool, the calendar's events, the window
// records and the arrival heap are the engine's own element types, whose
// fields walk codes one by one. The codeccoverage analyzer holds the
// codec's walk to every field of this struct and of those four element
// types, and captureSnapshot and applySnapshot to every field of the
// engine that is neither rebuilt nor exempt.
type snapshotState struct {
	// Run is the identity line of the run the snapshot belongs to
	// (runIdentity): a snapshot is never resumed against another engine
	// semantics, spec, seed, run shape or Table 2 point. The format is the
	// codec byte's to refuse, the topology shape the array lengths'.
	Run string

	// Time, progress and cumulative scalars.
	Now, LastProgress        int64
	LostPkts, StalledGenPkts int64

	// RNG streams: raw state words (4 per stream), not seeds.
	GenRNG []uint64 // generation stream
	TieRNG []uint64 // per-switch tie-break streams, 4 words each

	// Input side.
	InQLens     []int32 // per input VC
	InQData     []int32 // flattened in pop order
	InBusyUntil []int64
	Credits     []int16

	// Output side.
	OutQLens []int32 // per global port
	OutQPkt  []int32 // flattened in pop order
	OutQVC   []int8
	OutBusy  []int64

	// Servers.
	InjQLens []int32
	InjQData []int32
	InjBusy  []int64

	// Packet pool, verbatim including free entries: a recycled packet
	// inherits whatever stale fields the original run would have seen, so
	// packet ids and pool growth stay bit-identical after a restore.
	Pool []packet
	Free []int32

	// Calendar wheel, slot by slot.
	EventLens []int32
	Events    []event

	// Cumulative measurement: one window record per switch, and the
	// generated phits per server.
	Win      []window
	GenPhits []int64

	// Open-loop arrival calendar, heap layout verbatim (heapify order is
	// deterministic, so preserving the array preserves the pop sequence).
	ArrQ []arrival

	// Throughput series: the phits delivered in each bucket, up to the last
	// bucket with a delivery; empty when the run keeps none. Its bucket
	// width is the run's (Run names it).
	Series []int64
}

// captureSnapshot packs the engine into a snapshotState. It must be called
// at the sequential inter-cycle point (top of the cycle loop), where the
// per-cycle staging and merge counters are provably empty — asserted here,
// because a snapshot that silently dropped staged work would resume to
// diverging results. The exempt engine fields (see the codeccoverage
// registry) are exactly the ones a restore reconstructs: the network, the
// mechanism and pattern, the worker pool and scratch, the derived counters
// and the activity bookkeeping, and the asserted-empty staging.
//
// It is the only part of a checkpoint that runs on the cycle loop: the
// state it returns owns every slice it holds (copies, never the engine's
// arrays), so the loop steps on while another goroutine encodes, seals,
// compresses and ships it (ship).
func (e *engine) captureSnapshot(o RunOptions) *snapshotState {
	for sw := 0; sw < e.S; sw++ {
		if len(e.outbox[sw]) != 0 || len(e.freed[sw]) != 0 ||
			e.swDelivered[sw] != 0 || e.swLost[sw] != 0 || e.swProgressed[sw] {
			panic(fmt.Sprintf("sim: snapshot of switch %d taken outside the inter-cycle point at cycle %d", sw, e.now))
		}
	}

	genState := e.r.State()
	tieRNG := make([]uint64, 0, 4*len(e.tie))
	for sw := range e.tie {
		s := e.tie[sw].State()
		tieRNG = append(tieRNG, s[0], s[1], s[2], s[3])
	}

	inQLens, inQData, _ := e.inQ.flatten()
	outQLens, outQPkt, outQVC := e.outQ.flatten()
	injQLens, injQData, _ := e.injQ.flatten()

	eventLens := make([]int32, len(e.events))
	var evs []event
	for i, slot := range e.events {
		eventLens[i] = int32(len(slot))
		evs = append(evs, slot...)
	}

	return &snapshotState{
		Run: runIdentity(o),

		Now: e.now, LastProgress: e.lastProgress,
		LostPkts: e.lostPkts, StalledGenPkts: e.stalledGenPkts,

		GenRNG: genState[:],
		TieRNG: tieRNG,

		InQLens:     inQLens,
		InQData:     inQData,
		InBusyUntil: slices.Clone(e.inBusyUntil),
		Credits:     slices.Clone(e.credits),

		OutQLens: outQLens,
		OutQPkt:  outQPkt,
		OutQVC:   outQVC,
		OutBusy:  slices.Clone(e.outBusy),

		InjQLens: injQLens,
		InjQData: injQData,
		InjBusy:  slices.Clone(e.injBusy),

		Pool: slices.Clone(e.pool),
		Free: slices.Clone(e.free),

		EventLens: eventLens,
		Events:    evs,

		Win:      slices.Clone(e.win),
		GenPhits: slices.Clone(e.genPhits),

		ArrQ: slices.Clone(e.arrQ),

		Series: slices.Clone(e.series),
	}
}

// sealSnapshot encodes a captured snapshot in the one form a checkpoint
// takes outside the engine — what Sink receives, Resume accepts, a .ckpt
// file holds and a queue frame carries: the binary snapshotState body and
// a SHA-256 checksum trailer (so a torn file is refused on restore, not
// resumed), gzip-compressed. A snapshot is written every interval and read
// at most once, so it takes the fastest level: the mostly-zero
// struct-of-arrays state already shrinks about fivefold there, and the
// default level cost more than the capture it stored.
func sealSnapshot(st *snapshotState) []byte {
	// Neither call can fail: the level is a valid one, and the writer
	// writes into memory.
	var b bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&b, gzip.BestSpeed)
	zw.Write(wire.Seal(appendSnapshotState(nil, st)))
	zw.Close()
	return b.Bytes()
}

// maxSnapshotBytes bounds what restoreSnapshot inflates. The gzip stream
// arrives from a .ckpt file or a job frame, and a few KB of compressed
// zeros would otherwise inflate without limit. A snapshot holds no more
// than its engine's arenas, and the largest engine the README sizes — the
// 32×32×32 cube, 32K switches at ~35 KB each, 1.1 GB — rounds up to this
// power of two.
const maxSnapshotBytes = 2 << 30

// inflateSnapshot undoes sealSnapshot's compression. A stream that is not
// gzip, is torn, or inflates past limit, however few bytes it arrives in,
// is refused with ErrBadSnapshot. Any gzip level reads back.
func inflateSnapshot(snap []byte, limit int64) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(snap))
	if err != nil {
		return nil, fmt.Errorf("%w: %d bytes are not a gzip stream: %v", ErrBadSnapshot, len(snap), err)
	}
	sealed, err := io.ReadAll(io.LimitReader(zr, limit+1)) // one past: longer is told from exactly limit
	if err != nil {
		return nil, fmt.Errorf("%w: torn gzip stream: %v", ErrBadSnapshot, err)
	}
	if int64(len(sealed)) > limit {
		return nil, fmt.Errorf("%w: inflates past %d bytes", ErrBadSnapshot, limit)
	}
	return sealed, nil
}

// restoreSnapshot inflates, verifies and applies a sealSnapshot buffer to
// a freshly constructed engine. All rejection paths wrap ErrBadSnapshot.
func (e *engine) restoreSnapshot(snap []byte, o RunOptions) error {
	sealed, err := inflateSnapshot(snap, maxSnapshotBytes)
	if err != nil {
		return err
	}
	body, ok := wire.Open(sealed)
	if !ok {
		return fmt.Errorf("%w: %d bytes %w", ErrBadSnapshot, len(sealed), ErrSnapshotTrailer)
	}
	st, err := decodeSnapshotState(body)
	if err != nil {
		return err
	}
	return e.applySnapshot(st, o)
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

// applySnapshot validates a decoded snapshot against this engine and run,
// installs it, rebuilds what the format leaves out and audits the result.
// The engine must be freshly constructed by newEngine for the same
// RunOptions the snapshot was taken under (same network with its static
// fault set, mechanism, pattern, seed): the snapshot carries no topology or
// routing tables, only the primary simulation state. Restore is, in order:
// the run identity, length and range checks, before which nothing is installed
// (the lengths are what pin the topology shape and the calendar horizon,
// and the arrival calendar is held to its whole contract, checkArrivals);
// the primaries; the fault prefix the capturing run had applied, marks only
// (markLinkDead) with one BFS rebuild; rebuildDerived and rebuildActivity;
// and the port audit, so a snapshot whose credits, buffers or crossbar
// counts break a bound, or whose spent credits have no packet behind them,
// is refused rather than resumed. Every refusal wraps
// ErrBadSnapshot. An engine that refused after installing is garbage, and
// its network and mechanism have seen the fault replay: the caller builds
// all three afresh.
func (e *engine) applySnapshot(st *snapshotState, o RunOptions) error {
	badf := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	if want := runIdentity(o); st.Run != want {
		return badf("snapshot of the run [%s], resumed under [%s]", st.Run, want)
	}

	SP := e.S * e.P
	nServers := e.S * e.K
	if len(st.GenRNG) != 4 || len(st.TieRNG) != 4*e.S {
		return badf("RNG state words %d+%d, want 4+%d", len(st.GenRNG), len(st.TieRNG), 4*e.S)
	}
	for _, words := range [][]uint64{st.GenRNG, st.TieRNG} {
		for i := 0; i < len(words); i += 4 {
			// The one state xoshiro256** never reaches; SetState would reseed it.
			if [4]uint64(words[i:]) == ([4]uint64{}) {
				return badf("an RNG stream is in the all-zero state")
			}
		}
	}
	if len(st.OutQLens) != SP || len(st.OutBusy) != SP {
		return badf("per-port array lengths do not match %d global ports", SP)
	}
	if len(st.InQLens) != SP*e.V || len(st.InBusyUntil) != SP*e.V || len(st.Credits) != SP*e.V {
		return badf("per-VC array lengths do not match %d input VCs", SP*e.V)
	}
	if len(st.InjQLens) != nServers || len(st.InjBusy) != nServers || len(st.GenPhits) != nServers {
		return badf("per-server array lengths do not match %d servers", nServers)
	}
	if len(st.EventLens) != int(int64(e.S)*e.horizon) {
		return badf("event wheel has %d slots, want %d", len(st.EventLens), int64(e.S)*e.horizon)
	}
	if len(st.Win) != e.S {
		return badf("%d window records, want one per switch of %d", len(st.Win), e.S)
	}
	// Flattened rings: every length within the ring's capacity (the wheel's
	// slots have none), and the lengths account for exactly the entries.
	for _, r := range []struct {
		what              string
		lens              []int32
		capacity, entries int
	}{
		{"input rings", st.InQLens, e.cfg.InputBufPkts, len(st.InQData)},
		{"output rings", st.OutQLens, e.cfg.OutputBufPkts, len(st.OutQPkt)},
		{"injection rings", st.InjQLens, max(e.cfg.InjQueuePkts, o.BurstPackets), len(st.InjQData)},
		{"event wheel slots", st.EventLens, math.MaxInt32, len(st.Events)},
	} {
		total := 0
		for _, n := range r.lens {
			if n < 0 || int(n) > r.capacity {
				return badf("%s: length %d exceeds capacity %d", r.what, n, r.capacity)
			}
			total += int(n)
		}
		if total != r.entries {
			return badf("%s hold %d entries, data has %d", r.what, total, r.entries)
		}
	}
	if len(st.OutQVC) != len(st.OutQPkt) {
		return badf("output rings hold %d packets and %d VC tags", len(st.OutQPkt), len(st.OutQVC))
	}
	if st.Now < 0 {
		return badf("cycle %d is negative", st.Now)
	}
	// The cumulative counters start at zero and only grow: a negative one,
	// or window records whose sums wrap, would resume into a negative loss
	// count or latency.
	if st.LostPkts < 0 || st.StalledGenPkts < 0 || slices.ContainsFunc(st.GenPhits, func(g int64) bool { return g < 0 }) {
		return badf("a negative lost, stalled or generated count")
	}
	var sum window
	for sw, w := range st.Win {
		sum.deliveredPkts += w.deliveredPkts
		sum.latencySum += w.latencySum
		sum.hopSum += w.hopSum
		sum.escapedPkts += w.escapedPkts
		sum.linkBusy += w.linkBusy
		if min(w.deliveredPkts, w.latencySum, w.hopSum, w.escapedPkts, w.linkBusy,
			sum.deliveredPkts, sum.latencySum, sum.hopSum, sum.escapedPkts, sum.linkBusy) < 0 {
			return badf("the window record of switch %d %+v, or the sum up to it, holds a negative count", sw, w)
		}
	}
	// The resumed run indexes with these unchecked: every packet id — in a
	// ring, on the free list, on the wheel — names a pool entry, every
	// output-buffer entry a VC, and every event is of a known kind and
	// targets an input VC or an output (port, VC) of the switch whose
	// calendar it is on; below, the arrival calendar lists every server of
	// the run once (checkArrivals).
	inPool := func(ids ...int32) bool {
		for _, id := range ids {
			if id < 0 || int(id) >= len(st.Pool) {
				return false
			}
		}
		return true
	}
	if !inPool(st.InQData...) || !inPool(st.OutQPkt...) || !inPool(st.InjQData...) ||
		!inPool(st.Free...) || len(st.Free) > len(st.Pool) {
		return badf("a queued or free packet id lies outside the pool of %d, or more are free than exist", len(st.Pool))
	}
	for _, vc := range st.OutQVC {
		if vc < 0 || int(vc) >= e.V {
			return badf("an output buffer holds a packet on VC %d of %d", vc, e.V)
		}
	}
	// The mechanisms index their tables with a packet's switches and pick
	// VCs off its hop counts, and delivery indexes a server with its
	// destination: every pool entry, live or free, was a generated packet.
	isSwitch := func(sw int32) bool { return sw >= 0 && int(sw) < e.S }
	for i := range st.Pool {
		p := &st.Pool[i]
		if !isSwitch(p.st.Src) || !isSwitch(p.st.Dst) || !isSwitch(p.st.Intermediate) ||
			p.dstLocal < 0 || int(p.dstLocal) >= e.K || p.st.Hops < 0 || p.st.Deroutes < 0 || p.st.MinHops < 0 {
			return badf("packet %d %+v names a switch or server outside the network, or a negative hop count", i, *p)
		}
	}
	P, PV := int32(e.P), int32(e.P*e.V)
	cursor := 0
	for slot, n := range st.EventLens {
		sw := int32(int64(slot) / e.horizon)
		for _, ev := range st.Events[cursor : cursor+int(n)] {
			var lo, hi int32 // what ev.a indexes
			switch ev.kind {
			case evArrive, evCredit: // an input VC of sw
				lo, hi = sw*PV, (sw+1)*PV
			case evXferDone: // an output port of sw, and ev.vc of it
				lo, hi = sw*P, (sw+1)*P
			case evDeliver: // a server of sw; ev.a is unused
			default:
				return badf("event of unknown kind %d on the calendar of switch %d", ev.kind, sw)
			}
			if (ev.kind != evDeliver && (ev.a < lo || ev.a >= hi)) || ev.vc < 0 || int(ev.vc) >= e.V ||
				(ev.kind != evCredit && !inPool(ev.pkt)) {
				return badf("event %+v on the calendar of switch %d targets another switch, a VC past %d or a packet outside the pool", ev, sw, e.V)
			}
		}
		cursor += int(n)
	}

	// A server twice (and so another never), a broken heap or an arrival
	// before the restored cycle would not index out of range: it would
	// resume into another run's traffic. Every capture holds the last
	// bound, since the fast-forward never jumps past an arrival.
	wantArr := 0
	if o.BurstPackets == 0 {
		wantArr = nServers
	}
	if err := checkArrivals(st.ArrQ, wantArr, st.Now-1); err != nil {
		return badf("%v", err)
	}
	// The series is the merge's: kept only when the run has a bucket, every
	// bucket a whole number of packets, and ending at the bucket of a
	// delivery before the restored cycle. A longer series would resume
	// into another run's rows.
	if n := int64(len(st.Series)); n > 0 {
		if e.seriesBucket == 0 {
			return badf("a throughput series where the run keeps none")
		}
		if st.Series[n-1] == 0 || st.Now < 1 || n-1 > (st.Now-1)/e.seriesBucket {
			return badf("the throughput series ends in bucket %d with %d phits: not the bucket of a delivery before cycle %d", n-1, st.Series[n-1], st.Now)
		}
		for i, phits := range st.Series {
			if phits < 0 || phits%int64(e.cfg.PacketPhits) != 0 {
				return badf("throughput series bucket %d holds %d phits, not a whole number of %d-phit packets", i, phits, e.cfg.PacketPhits)
			}
		}
	}

	// Validation passed: install the primaries. Scalars first.
	e.now = st.Now
	e.lastProgress = st.LastProgress
	e.lostPkts = st.LostPkts
	e.stalledGenPkts = st.StalledGenPkts

	e.r.SetState([4]uint64(st.GenRNG))
	for sw := range e.tie {
		e.tie[sw].SetState([4]uint64(st.TieRNG[4*sw:]))
	}

	e.inQ.load(st.InQLens, st.InQData, nil)
	copy(e.inBusyUntil, st.InBusyUntil)
	copy(e.credits, st.Credits)

	e.outQ.load(st.OutQLens, st.OutQPkt, st.OutQVC)
	copy(e.outBusy, st.OutBusy)

	e.injQ.load(st.InjQLens, st.InjQData, nil)
	copy(e.injBusy, st.InjBusy)

	e.pool = append(e.pool[:0], st.Pool...)
	e.free = append(e.free[:0], st.Free...)

	cursor = 0
	for i, n := range st.EventLens {
		e.events[i] = append(e.events[i][:0], st.Events[cursor:cursor+int(n)]...)
		cursor += int(n)
	}

	copy(e.win, st.Win)
	copy(e.genPhits, st.GenPhits)

	if o.BurstPackets == 0 {
		e.arrQ = slices.Clone(st.ArrQ)
		e.logOneMinusGenProb = e.arrivalLog(o.Load)
	}

	e.series = append(e.series[:0], st.Series...)

	// The loop applies a fault at the top of its cycle, after the
	// checkpoint, and the fast-forward stops at every fault's cycle: a
	// capture has applied exactly the faults scheduled before it, which
	// the sorted schedule lists first. Replay those: the marks only (fault
	// set, dead ports) — the drains are in the rings and the lost-packet
	// count already — then the routing tables, once.
	for e.nextFault < len(e.faultSchedule) && e.faultSchedule[e.nextFault].Cycle < st.Now {
		if _, err := e.markLinkDead(e.faultSchedule[e.nextFault].Edge); err != nil {
			return badf("the faults before cycle %d do not replay on this schedule: %v", st.Now, err)
		}
		e.nextFault++
	}
	if e.nextFault > 0 {
		if err := e.mech.Rebuild(e.nw); err != nil {
			return fmt.Errorf("sim: table rebuild on snapshot restore: %w", err)
		}
	}

	e.rebuildDerived()
	e.rebuildActivity()
	if err := e.auditPorts(); err != nil {
		return badf("the restored state fails the port audit: %v", err)
	}
	return nil
}

// rebuildDerived recomputes, after a restore, every engine word that is an
// exact function of the installed primaries and so is not in the format:
// per port, the packed allocation words (output occupancy, the credit sum
// of the port's own input buffers), its bits of the three occupancy masks
// and its crossbar counts — an evCredit per transfer out of it
// (inInflight), an evXferDone per transfer into it, by VC with what it
// queues (outVCCount); per switch, its calendar word (a bit per nonempty
// slot); the head cache, derived too, starts empty. auditPorts states each
// of these identities its own way (invariants.go) — which is what licenses
// leaving them out — and applySnapshot runs it right after, so a mistake
// here refuses snapshots instead of resuming them into a different
// simulation.
func (e *engine) rebuildDerived() {
	P, V, R, K := int32(e.P), int32(e.V), int32(e.R), int32(e.K)
	clear(e.inMask)
	clear(e.outMask)
	clear(e.injMask)
	clear(e.evMask)
	clear(e.pq)
	clear(e.inInflight)
	clear(e.outVCCount)
	e.dropHeads()
	for i, slot := range e.events {
		if len(slot) > 0 {
			e.evMask[int64(i)/e.horizon] |= 1 << (int64(i) % e.horizon)
		}
		for _, ev := range slot {
			switch ev.kind {
			case evCredit:
				e.inInflight[ev.a/V]++
			case evXferDone:
				e.pq[ev.a].outTotal++
				e.outVCCount[ev.a*V+int32(ev.vc)]++
			}
		}
	}
	for gp := int32(0); gp < int32(e.S)*P; gp++ {
		sw, p := gp/P, gp%P
		w, b := e.maskBit(sw, int(p))
		for v := int32(0); v < V; v++ {
			if e.inQ.len(gp*V+v) > 0 {
				e.inMask[w] |= b
			}
			e.pq[gp].credSum += e.credits[e.up[gp]*V+v]
		}
		queued := e.outQ.len(gp)
		e.pq[gp].outTotal += int16(queued)
		for j := 0; j < queued; j++ {
			e.outVCCount[gp*V+int32(e.outQ.tag[e.outQ.slot(gp, j)])]++
		}
		if queued > 0 {
			e.outMask[w] |= b
		}
		if p >= R && e.injQ.len(sw*K+p-R) > 0 {
			e.injMask[w] |= b
		}
	}
}

// rebuildActivity reconstructs the activity bookkeeping after a restore by
// conservatively booking (book) every switch that holds any work into the
// timing wheel's slot of the restored cycle, so the first resumed cycle
// lists them all as due. Snapshots deliberately carry NO activity state —
// the timing wheel, the due list and the retry words are derived
// bookkeeping — which is what makes a snapshot independent of the
// worker count and the walk (due list or full-walk oracle) of both the run
// that took it and the run that resumes it.
//
// Correctness of the conservative booking: visiting a switch early is
// always safe (the parked-switch skip proof runs in both directions — an
// extra visit to a switch whose real work lies in the future mutates
// nothing and draws no randomness), and on that first due visit the
// inject/allocate/transmit phases re-derive the retry word exactly (the
// calendar word, rebuilt by rebuildDerived, is exact already), so the
// end-of-cycle compaction books the exact next-work time and the engine
// is back on the uninterrupted run's trajectory. The CheckInvariants
// audits only run after a full cycle, when the components are exact
// again.
func (e *engine) rebuildActivity() {
	a := newActivityState(e.S, e.horizon+2)
	e.act = a
	for sw := int32(0); sw < int32(e.S); sw++ {
		if e.evMask[sw] != 0 || e.holdsPackets(sw) {
			a.book(sw, e.now)
		}
	}
}

// ckptClock tracks when the next periodic snapshot is owed and the one
// snapshot in flight; one per run loop, advanced by maybeCheckpoint.
type ckptClock struct {
	lastWall  time.Time
	lastCycle int64
	iter      int64
	// inflight receives the Sink outcome of the snapshot being encoded and
	// shipped; nil when none is.
	inflight chan error
}

func newCkptClock(now int64) ckptClock {
	return ckptClock{lastWall: time.Now(), lastCycle: now}
}

// wait blocks until the snapshot in flight, if any, has been shipped, and
// returns its Sink error.
func (c *ckptClock) wait() error {
	if c.inflight == nil {
		return nil
	}
	err := <-c.inflight
	c.inflight = nil
	return err
}

// ship is the one path a snapshot, periodic or final, leaves the run by.
// It waits for the snapshot in flight — so a slow Sink holds the loop back
// rather than piling up captures, and Sink calls never overlap — and
// returns that one's Sink error if it failed. Otherwise it captures the
// engine and starts encoding, sealing, compressing and shipping the capture
// on a goroutine of its own, which touches nothing of the engine.
func (e *engine) ship(c *ckptClock, o RunOptions) error {
	if err := c.wait(); err != nil {
		return err
	}
	st, sink := e.captureSnapshot(o), o.Checkpoint.Sink
	done := make(chan error, 1)
	c.inflight = done
	go func() { done <- sink(sealSnapshot(st)) }()
	return nil
}

// maybeCheckpoint runs at the top of each cycle-loop iteration (the
// sequential inter-cycle point). It ships a snapshot through Sink when the
// cycle or wall-clock interval has elapsed, and — when Interrupt is raised
// — ships a final snapshot, waits until Sink has taken it, and stops the
// run with ErrCheckpointed. Only the capture runs here; the encoding, the
// checksum, the compression and the Sink call run off the loop (ship),
// whose caller waits for the last of them. Capturing a snapshot never
// mutates engine state, so periodic checkpointing cannot perturb results,
// and the wall-clock trigger (checked only every 64 iterations to keep it
// off the hot path) costs nothing in determinism.
func (e *engine) maybeCheckpoint(c *ckptClock, o RunOptions) error {
	ck := o.Checkpoint
	if ck == nil || ck.Sink == nil {
		return nil
	}
	if ck.Interrupt != nil && ck.Interrupt.Load() {
		if err := e.ship(c, o); err != nil {
			return err
		}
		if err := c.wait(); err != nil {
			return err
		}
		return ErrCheckpointed
	}
	due := ck.EveryCycles > 0 && e.now-c.lastCycle >= ck.EveryCycles
	if !due && ck.Every > 0 {
		if c.iter++; c.iter&63 == 0 && time.Since(c.lastWall) >= ck.Every {
			due = true
		}
	}
	if !due {
		return nil
	}
	c.lastCycle = e.now
	c.lastWall = time.Now()
	return e.ship(c, o)
}
