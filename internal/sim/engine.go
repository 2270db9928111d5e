package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// ErrDeadlock is returned when the watchdog observes no forward progress
// while packets are in flight — the condition SurePath's escape subnetwork
// exists to prevent.
var ErrDeadlock = errors.New("sim: no forward progress (deadlock suspected)")

// packet is the in-flight representation of one message.
type packet struct {
	birth    int64
	dstLocal int16 // server index at the destination switch
	inWindow bool  // generated during the measurement window
	st       routing.PacketState
}

// event kinds processed from the calendar queue.
const (
	evArrive   = iota // packet lands in input VC `a`
	evXferDone        // packet enters output buffer of global port `a` on VC vc
	evCredit          // input VC `a` frees a slot: credit to its sender, crossbar slot to its port
	evDeliver         // packet reaches its destination server
)

type event struct {
	kind int8
	vc   int8
	a    int32 // input VC id, global port id, or unused
	pkt  int32
}

// timedEvent is an event bound for another switch's calendar, staged in the
// source switch's outbox until the sequential merge step routes it.
type timedEvent struct {
	at int64 // absolute cycle
	ev event
}

// request is one head packet's single allocation request this cycle.
type request struct {
	cost    int64 // Q + P
	tie     uint32
	invc    int32 // global input VC id
	inPort  int32 // global port id
	outPort int32 // global port id
	pkt     int32
	vc      int8
	eject   bool
}

// engine holds all simulation state. Indices:
//
//	switch ports:  p in [0,R) link ports, [R,R+K) server (inject/eject) ports
//	global port:   sw*P + p
//	input VC:      gport*V + vc
//	server:        sw*K + w
//
// The cycle loop is organized as a sequence of phases over the switch
// array (see run.go). All mutable state is owned by exactly one switch in
// every phase, which is what lets the phases run switch-parallel with a
// worker pool while staying bit-identical to the sequential walk: see
// shard.go for the ownership argument.
type engine struct {
	cfg  Config
	nw   *topo.Network
	mech routing.Mechanism
	pat  traffic.Pattern
	r    *rng.Rand // traffic generation + packet Init (sequential phase only)

	S, R, K, P, V int

	workers int
	disp    *spinPool // nil when workers <= 1

	// act is the dirty-switch tracking state (activity.go), kept by every
	// engine. fullWalk marks the tests' full-walk oracle
	// (RunOptions.fullWalk), which keeps the same bookkeeping but walks
	// all, every switch id in order, every cycle and never jumps; all is
	// nil in every other run. fullWalk is tested only where the oracle
	// must differ: walk(), fastForwardTarget, the event phase's early exit,
	// the mask walks of the per-switch phases (scanWord) and the
	// allocator, which prices every head uncached (bestRequest).
	act      *activityState
	fullWalk bool
	all      []int32

	// portDead mutates on scheduled mid-run faults; up never does.
	portDead []bool // per global port: link failed mid-run (markLinkDead)

	// up[gp] is the global port at the far end of gp's link: the neighbor's
	// reverse port for a link port (dead or alive), gp itself for a server
	// port. One map serves both directions of a link — the port an output
	// feeds is the port whose sender fills this port's input buffers.
	up []int32

	// pq packs the two per-gport words the allocation cost function reads
	// — total output occupancy (outQ.len() plus the transfers crossing the
	// crossbar into the port) and the credit sum of the port's own input
	// buffers — into one entry, so each qCost call touches a single cache
	// line instead of two arrays. qCost dominates the allocate phase and
	// runs once per route candidate of every eligible head, so the
	// scattered loads it issues are the per-cycle cost floor at low load.
	pq []portq

	// Input side. inQ, outQ and injQ are ring sets (ring.go): one ring per
	// input VC, per global port and per server.
	inQ         ringSet
	inBusyUntil []int64
	inInflight  []int8 // per global port: outgoing crossbar transfers (its pending evCredits)

	// credits is the credit ledger, indexed by the SENDER's (gport, vc):
	// credits[gp*V+vc] is the free space of the input buffer that output
	// (gp, vc) feeds — input VC vc of port up[gp] — and, on a server port,
	// what the server may still inject into the port's own input VC. A
	// switch prices, checks and spends credits on its own lines; only the
	// return of one, when the receiver frees the slot, reaches across
	// through up[].
	credits []int16

	// Per-switch port-occupancy bitmasks, maskWords words per switch (bit p
	// of switch sw located by maskBit): port p's bit is set in inMask iff the
	// port has a nonempty input VC, in outMask iff its output buffer is
	// nonempty, and in injMask iff p = R+s is a server port whose server s
	// has a nonempty injection queue (bits below R stay zero there). They
	// are the engine's only record of which queues hold packets: the
	// inject, allocate and transmit scans jump straight to the set bits
	// instead of probing the full radix, which at low load is almost
	// entirely empty, and a switch with no bit set in any of the three
	// holds no packet (holdsPackets). Maintained unconditionally (and
	// audited against the rings), consulted by every run but the tests'
	// full-walk oracle, which probes every port and server.
	maskWords int
	inMask    []uint64
	outMask   []uint64
	injMask   []uint64

	// The head cache: the candidate list of an input VC's head packet,
	// resolved into packed words (hcPack) so that a head which stays
	// blocked is priced without calling Mechanism.Candidates again — the
	// bulk of the allocator's work above saturation. hcLen[invc] is the
	// head's state: hcUnseen, hcSeen, or hcCached plus the length of its
	// list at hcOff[invc] in its switch's region of hcArena (hcCap entries
	// per switch, the first hcTop[sw] handed out). A list is filled on the
	// head's second evaluation, dropped when the head pops (commitSwitch),
	// and the whole cache goes on every table rebuild and restore
	// (dropHeads); a full region resets its switch's cache. A list is a
	// pure function of the switch, the head's route state, its VC and the
	// tables (the Mechanism.Candidates contract), and it is priced in its
	// original order with one tie-break draw per entry, so a cached head
	// requests exactly what a recomputed one would. Only a switch's own
	// allocate and commit write its words; the cache is not snapshot state.
	hcArena []uint32
	hcOff   []uint16
	hcLen   []uint8
	hcTop   []uint32
	hcCap   int

	// penCost[p] caches penaltyCost for the small penalty constants, each
	// entry evaluated with penaltyCost's own float expression so cached
	// costs are bit-identical to computing them on demand.
	penCost []int64

	// Output side. A grant reserves its output slot when it enters the
	// crossbar (pq.outTotal) and converts it when it leaves (evXferDone), so
	// the port's incoming transfers are pq.outTotal - outQ.len(gport): its
	// pending evXferDones.
	outQ       ringSet // per global port: (packet, VC) pairs
	outVCCount []int16 // per gport*V+vc: queued packets tagged vc plus pending evXferDones on vc
	outBusy    []int64 // link serialization busy-until

	// Servers.
	injQ    ringSet
	injBusy []int64

	// Packet pool. Mutated only in sequential phases (generation, merges).
	pool []packet
	free []int32

	// Calendar queues, one per switch: slot sw*horizon + cycle%horizon.
	// evMask[sw] is the switch's calendar in one word: bit t is set iff its
	// slot t holds an event. It is the engine's only record of pending
	// events: scheduleSw and the transmit merge set a bit where they
	// append, the event phase clears it where it drains the slot, and
	// nextEvent reads the earliest pending cycle off it. One word per
	// switch is why newEngine refuses a horizon past maxHorizon.
	events  [][]event
	evMask  []uint64
	horizon int64

	// Per-switch state for the sharded phases, laid out struct-of-arrays:
	// every hot word lives in a flat array indexed by switch id, so a
	// phase touches dense, type-homogeneous memory instead of striding
	// through an array of fat structs. tie is the per-switch allocation
	// tie-break stream.
	tie []rng.Rand

	// Staging arenas: the per-cycle staging slices of every switch are
	// carved from one slab per family (see carveStaging), each region
	// sized at construction from the flow-control worst case —
	//
	//	granted ≤ P·XbarSpeedup     (crossbar slots per cycle)
	//	outbox  ≤ R                 (one link-port pop per cycle)
	//	freed   ≤ K + P·XbarSpeedup (deliveries + dead-port losses)
	//
	// The regions are three-index slices (len 0, fixed cap), so a switch
	// that somehow outgrew its bound would spill that one slice to a
	// private heap array — correct, just slower — instead of bleeding
	// into its neighbour's region.
	granted [][]request    // winners of this cycle's arbitration
	outbox  [][]timedEvent // link arrivals bound for other switches
	freed   [][]int32      // packet ids retired this cycle

	// Per-cycle counters, folded and reset by the merge steps. Every
	// delivered packet is PacketPhits phits, so the delivered count is all
	// the merge needs for the throughput series.
	swDelivered  []int64
	swLost       []int64
	swProgressed []bool

	// Cumulative measurement record of every switch, folded once in
	// result() (foldWindow).
	win []window

	// Per-worker scratch for the sharded phases.
	ws []workerScratch

	// Open-loop geometric generation (arrivals.go): the per-server arrival
	// calendar and the cached sampling constant (arrivalLog of the run's
	// Load). nil/zero in burst mode.
	arrQ               []arrival
	logOneMinusGenProb float64

	// Mid-run fault schedule.
	faultSchedule []FaultEvent
	nextFault     int
	lostPkts      int64

	// Time and progress.
	now          int64
	lastProgress int64

	// Measurement. The per-switch window records above are summed once, by
	// result() (foldWindow); these are maintained by the sequential phases.
	warmStart, warmEnd int64 // measurement window [warmStart, warmEnd)
	genPhits           []int64
	stalledGenPkts     int64

	// Throughput series (kept when seriesBucket > 0, the run's
	// SeriesBucket): the phits delivered in each seriesBucket-cycle bucket,
	// up to the last bucket with a delivery. result() divides them into
	// Result.Series.
	seriesBucket int64
	series       []int64
}

// window is one switch's cumulative measurement record, written only by
// that switch's phases, and — from foldWindow — their sum over switches.
// The delivered phits are deliveredPkts x PacketPhits, so they have no field.
type window struct {
	deliveredPkts int64 // inside the measurement window, as are the next four
	latencySum    int64
	hopSum        int64
	escapedPkts   int64
	linkBusy      int64 // switch-link busy cycles
	lastDelivery  int64 // cycle of the switch's last delivery, window or not; the fold takes the max
}

// workerScratch is the reusable buffer set of one worker; nothing in it
// survives across switches, so results are independent of which worker
// processes which switch. The trailing pad keeps adjacent workers' slice
// headers on separate cache lines: the headers mutate on every append
// growth and ring rotation, and false sharing between neighbours in e.ws
// would bounce the line across every core running a phase.
type workerScratch struct {
	cands  []routing.Candidate
	vcBuf  []int
	rscr   routing.Scratch
	bucket [][]request // per local output port: this switch's candidate list
	inUsed []int8      // per local input port: grants issued this cycle
	vcUsed []int16     // per VC: credits consumed within the current bucket

	_ [64]byte // cache-line pad between adjacent workers
}

// carveStaging carves n zero-length, fixed-capacity staging slices out of
// a single slab allocation. The three-index expression pins each
// region's capacity, so an append past it reallocates that one slice to
// the heap instead of overwriting the next switch's region.
func carveStaging[T any](n, capacity int) [][]T {
	slab := make([]T, n*capacity)
	out := make([][]T, n)
	for i := range out {
		o := i * capacity
		out[i] = slab[o : o : o+capacity]
	}
	return out
}

// maxVCs is the engine's virtual-channel ceiling: VC indices travel through
// int8 fields (events, requests, output-buffer entries).
const maxVCs = 127

// maxHorizon is the longest calendar the engine keeps: evMask holds one
// bit per slot in a uint64 (Table 2's configuration needs 28).
const maxHorizon = 64

// calendarError refuses a Config whose event horizon — the slots of one
// switch's calendar — does not fit an evMask word.
func calendarError(horizon int64) error {
	if horizon > maxHorizon {
		return fmt.Errorf("sim: the event horizon of %d cycles (PacketPhits, LinkLatency, "+
			"the crossbar transfer, XbarLatency and 2) exceeds the %d slots a calendar word holds",
			horizon, maxHorizon)
	}
	return nil
}

// tieStreamBase offsets the per-switch tie-break RNG stream ids away from
// the generation stream (0x51) in the run seed's substream space.
const tieStreamBase = 0x100

func newEngine(o RunOptions) (*engine, error) {
	h := o.Net.H
	if v := o.Mechanism.VCs(); v < 1 || v > maxVCs {
		return nil, fmt.Errorf("sim: mechanism %s needs %d VCs; the engine supports 1..%d",
			o.Mechanism.Name(), v, maxVCs)
	}
	injCap := max(o.Config.InjQueuePkts, o.BurstPackets)
	c := o.Config
	horizon := int64(c.PacketPhits+c.LinkLatency) + c.xferCycles() + int64(c.XbarLatency) + 2
	if err := errors.Join(
		ringCapError("InputBufPkts", c.InputBufPkts),
		ringCapError("OutputBufPkts", c.OutputBufPkts),
		ringCapError("the injection queue (InjQueuePkts or BurstPackets)", injCap),
		calendarError(horizon),
	); err != nil {
		return nil, err
	}
	e := &engine{
		cfg:  o.Config,
		nw:   o.Net,
		mech: o.Mechanism,
		pat:  o.Pattern,
		r:    rng.NewStream(o.Seed, 0x51),
		S:    h.Switches(),
		R:    h.SwitchRadix(),
		K:    o.ServersPerSwitch,
		V:    o.Mechanism.VCs(),

		seriesBucket: max(o.SeriesBucket, 0),
	}
	e.P = e.R + e.K
	e.workers = o.Workers
	if e.workers < 1 {
		e.workers = 1
	}
	if e.workers > e.S {
		e.workers = e.S
	}
	SP := e.S * e.P
	var err error
	if e.faultSchedule, err = sortFaultSchedule(o.FaultSchedule); err != nil {
		return nil, err
	}
	e.portDead = make([]bool, SP)
	e.up = make([]int32, SP)
	e.pq = make([]portq, SP)
	for sw := int32(0); sw < int32(e.S); sw++ {
		for p := 0; p < e.P; p++ {
			gp := int(sw)*e.P + p
			e.pq[gp].credSum = int16(e.V * e.cfg.InputBufPkts)
			if p >= e.R {
				e.up[gp] = int32(gp)
				continue
			}
			nbr := h.PortNeighbor(sw, p)
			e.up[gp] = nbr*int32(e.P) + int32(h.PortTo(nbr, sw))
		}
	}
	e.inQ = newRingSet(SP*e.V, e.cfg.InputBufPkts, false)
	e.inBusyUntil = make([]int64, SP*e.V)
	e.credits = make([]int16, SP*e.V)
	for i := range e.credits {
		e.credits[i] = int16(e.cfg.InputBufPkts)
	}
	e.inInflight = make([]int8, SP)
	e.penCost = make([]int64, 128)
	for p := range e.penCost {
		e.penCost[p] = int64(e.cfg.PenaltyWeight * float64(p) / float64(e.cfg.PacketPhits))
	}
	e.outQ = newRingSet(SP, e.cfg.OutputBufPkts, true)
	e.maskWords = (e.P + 63) / 64
	e.inMask = make([]uint64, e.S*e.maskWords)
	e.outMask = make([]uint64, e.S*e.maskWords)
	e.injMask = make([]uint64, e.S*e.maskWords)
	e.hcCap = min(hcArenaPerVC*e.P*e.V, hcMaxOffset)
	e.hcArena = make([]uint32, e.S*e.hcCap)
	e.hcOff = make([]uint16, SP*e.V)
	e.hcLen = make([]uint8, SP*e.V)
	e.hcTop = make([]uint32, e.S)
	e.outVCCount = make([]int16, SP*e.V)
	e.outBusy = make([]int64, SP)

	nServers := e.S * e.K
	e.injQ = newRingSet(nServers, injCap, false)
	e.injBusy = make([]int64, nServers)
	e.genPhits = make([]int64, nServers)

	e.horizon = horizon
	e.events = make([][]event, int64(e.S)*e.horizon)
	e.evMask = make([]uint64, e.S)

	e.tie = make([]rng.Rand, e.S)
	for sw := range e.tie {
		e.tie[sw].Seed(rng.StreamSeed(o.Seed, tieStreamBase+uint64(sw)))
	}

	// Staging arenas, one slab per family (capacities: see the field
	// comment). BurstPackets does not raise the grant bound — burst
	// traffic preloads into injection queues and still crosses the
	// crossbar at most XbarSpeedup per port per cycle.
	capGrant := e.P * e.cfg.XbarSpeedup
	e.granted = carveStaging[request](e.S, capGrant)
	e.outbox = carveStaging[timedEvent](e.S, e.R)
	e.freed = carveStaging[int32](e.S, e.K+capGrant)

	e.swDelivered = make([]int64, e.S)
	e.swLost = make([]int64, e.S)
	e.swProgressed = make([]bool, e.S)
	e.win = make([]window, e.S)

	e.ws = make([]workerScratch, e.workers)
	for w := range e.ws {
		e.ws[w].bucket = make([][]request, e.P)
		e.ws[w].inUsed = make([]int8, e.P)
		e.ws[w].vcUsed = make([]int16, e.V)
	}
	e.act = newActivityState(e.S, e.horizon+2)
	e.fullWalk = o.fullWalk
	if o.fullWalk {
		e.all = make([]int32, e.S)
		for sw := range e.all {
			e.all[sw] = int32(sw)
		}
	}
	return e, nil
}

// maskBit locates port p of switch sw in the occupancy masks: the index of
// its word and the bit within that word.
func (e *engine) maskBit(sw int32, p int) (int, uint64) {
	return int(sw)*e.maskWords + p>>6, 1 << uint(p&63)
}

// holdsPackets reports whether switch sw has a packet in any input VC,
// output buffer or injection queue: some bit of its words of the three
// occupancy masks.
func (e *engine) holdsPackets(sw int32) bool {
	base := int(sw) * e.maskWords
	var m uint64
	for i := base; i < base+e.maskWords; i++ {
		m |= e.inMask[i] | e.outMask[i] | e.injMask[i]
	}
	return m != 0
}

// scanWord is word i of switch sw's mask as a phase's port walk reads it:
// the mask word itself or, in the full walk, the bit of every port p >= lo
// in the word set, so the oracle probes each of the phase's ports whatever
// its bit says. A phase walks the words in order and the set bits of each
// from the lowest up — the ascending order of the full scan — and reads a
// word once, before visiting its ports, so a visit may clear their bits.
func (e *engine) scanWord(mask []uint64, sw int32, i, lo int) uint64 {
	if !e.fullWalk {
		return mask[int(sw)*e.maskWords+i]
	}
	m := ^uint64(0)
	if n := e.P - i<<6; n < 64 {
		m = 1<<uint(n) - 1
	}
	if n := lo - i<<6; n >= 64 {
		return 0
	} else if n > 0 {
		m &^= 1<<uint(n) - 1
	}
	return m
}

// scheduleSw enqueues an event on switch sw's calendar at now+delay. Inside
// a phase every caller schedules onto its own switch (cross-switch
// arrivals go through the outbox, which the sequential transmit merge
// schedules), so the calendar word stays switch-owned.
func (e *engine) scheduleSw(sw int32, delay int64, ev event) {
	t := (e.now + delay) % e.horizon
	slot := int64(sw)*e.horizon + t
	e.events[slot] = append(e.events[slot], ev)
	e.evMask[sw] |= 1 << t
}

// nextEvent is the cycle of switch sw's earliest pending calendar event
// after now, nwNever when its calendar is empty: evMask rotated within the
// horizon so that slot now+1 is bit 0, and its lowest set bit. (At horizon
// 64 the rotation is the identity or a shift by less than 64; a shift by
// 64 yields 0 in Go, so the wrapped half vanishes as it should.)
func (e *engine) nextEvent(sw int32) int64 {
	m := e.evMask[sw]
	if m == 0 {
		return nwNever
	}
	s := uint((e.now + 1) % e.horizon)
	return e.now + 1 + int64(bits.TrailingZeros64(m>>s|m<<(uint(e.horizon)-s)))
}

// allocPacket takes a packet from the pool (sequential phases only).
func (e *engine) allocPacket() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.pool = append(e.pool, packet{})
	return int32(len(e.pool) - 1)
}

func (e *engine) freePacket(id int32) {
	e.free = append(e.free, id)
}

// inFlight counts the live packets: the pool entries not on the free list.
// A retired packet joins the free list in the merge that folds its
// switch's staging, so between cycles it is exactly the packets generated
// and neither delivered nor lost.
func (e *engine) inFlight() int64 {
	return int64(len(e.pool) - len(e.free))
}

// generate creates one message at server src toward the pattern's
// destination and enqueues it in the injection queue; it returns false and
// counts a stall when the queue is full. It runs in the sequential phase:
// all generation randomness draws from the single generation stream in
// server order, independent of the worker count.
func (e *engine) generate(src int32) bool {
	if e.injQ.full(src) {
		e.stalledGenPkts++
		return false
	}
	dst := e.pat.Dest(src, e.r)
	id := e.allocPacket()
	pkt := &e.pool[id]
	pkt.birth = e.now
	pkt.dstLocal = int16(int(dst) % e.K)
	pkt.inWindow = e.now >= e.warmStart && e.now < e.warmEnd
	e.mech.Init(&pkt.st, src/int32(e.K), dst/int32(e.K), e.r)
	sw := src / int32(e.K)
	if e.injQ.len(src) == 0 {
		w, b := e.maskBit(sw, e.R+int(src-sw*int32(e.K)))
		e.injMask[w] |= b
	}
	e.injQ.push(src, id)
	// Generation runs between the event and inject phases, so the switch
	// must execute the rest of THIS cycle — exactly when the full walk
	// would first see the new packet: actWake books it into the current
	// slot of the timing wheel, and compaction refolds its next visit.
	e.actWake(sw)
	if pkt.inWindow {
		e.genPhits[src] += int64(e.cfg.PacketPhits)
	}
	return true
}

// processEventsSwitch drains switch sw's calendar slot for the current
// cycle. Every event on a switch's calendar targets state that switch owns
// in this phase (arrivals into its input VCs, transfers into its output
// buffers, deliveries at its servers); a credit of one of its input VCs
// goes back to the sender's ledger entry, which only this switch writes in
// this phase (shard.go).
func (e *engine) processEventsSwitch(sw int32) {
	t := e.now % e.horizon
	if e.evMask[sw]&(1<<t) == 0 && !e.fullWalk {
		// This cycle's slot is empty: skip the slot load. (The full walk
		// drains the empty slot anyway: it stays the plain reference the
		// A/B bit-identity tests compare against.)
		return
	}
	e.evMask[sw] &^= 1 << t
	gpBase := sw * int32(e.P)
	slot := int64(sw)*e.horizon + t
	evs := e.events[slot]
	e.events[slot] = evs[:0]
	for _, ev := range evs {
		switch ev.kind {
		case evArrive:
			if e.inQ.len(ev.a) == 0 {
				w, b := e.maskBit(sw, int(ev.a/int32(e.V)-gpBase))
				e.inMask[w] |= b
			}
			e.inQ.push(ev.a, ev.pkt)
		case evXferDone:
			// The reserve converts into a queued packet, so outTotal is
			// unchanged — except on a dead port, where the packet is lost.
			if e.portDead[ev.a] {
				// The link failed while the packet crossed the switch.
				e.pq[ev.a].outTotal--
				e.outVCCount[ev.a*int32(e.V)+int32(ev.vc)]--
				e.swLost[sw]++
				e.freed[sw] = append(e.freed[sw], ev.pkt)
				continue
			}
			if e.outQ.len(ev.a) == 0 {
				w, b := e.maskBit(sw, int(ev.a-gpBase))
				e.outMask[w] |= b
			}
			e.outQ.pushVC(ev.a, ev.pkt, ev.vc)
			// The input port gave its crossbar slot back XbarLatency cycles
			// ago, in the evCredit of the same grant, so only the output
			// side is handled here.
		case evCredit:
			// The packet's tail has left input VC ev.a: the slot goes back to
			// the sender as a credit, and the input port's crossbar slot frees.
			V := int32(e.V)
			gp := ev.a / V
			vc := ev.a - gp*V
			e.credits[e.up[gp]*V+vc]++
			e.pq[gp].credSum++
			e.inInflight[gp]--
		case evDeliver:
			e.deliverSw(sw, ev.pkt)
		}
	}
}

// deliverSw retires a packet at its destination server, accumulating into
// the owning switch's counter slots; the merge step folds them into the
// run totals in switch order.
func (e *engine) deliverSw(sw, id int32) {
	pkt := &e.pool[id]
	e.swDelivered[sw]++
	e.swProgressed[sw] = true
	w := &e.win[sw]
	w.lastDelivery = e.now
	if e.now >= e.warmStart && e.now < e.warmEnd {
		w.deliveredPkts++
		w.latencySum += e.now - pkt.birth
		w.hopSum += int64(pkt.st.Hops)
		if pkt.st.InEscape {
			w.escapedPkts++
		}
	}
	e.freed[sw] = append(e.freed[sw], id)
}

// injectSwitch launches head packets of switch sw's server queues onto
// their injection links. It is the first of the three phases that build
// the switch's retry word, so it assigns the word on every path; allocate
// and transmit then lower it.
func (e *engine) injectSwitch(sw int32, ws *workerScratch) {
	V := e.V
	// retry: the earliest injection-link release over servers that still
	// hold packets afterward. A head blocked on credits contributes nothing:
	// its space frees only through this switch's own evCredit/evArrive event
	// chain, which nextEvent already bounds (see the skip proof in activity.go).
	retry := nwNever
	// Visit the servers with queued packets (the full walk: every server),
	// server port p = R+s for server s.
	for i := 0; i < e.maskWords; i++ {
		for m := e.scanWord(e.injMask, sw, i, e.R); m != 0; m &= m - 1 {
			p := i<<6 + bits.TrailingZeros64(m)
			g := sw*int32(e.K) + int32(p-e.R)
			if e.injQ.len(g) == 0 {
				continue
			}
			if e.injBusy[g] > e.now {
				retry = min(retry, e.injBusy[g])
				continue
			}
			id := e.injQ.peek(g)
			pkt := &e.pool[id]
			base := (sw*int32(e.P) + int32(p)) * int32(V)
			ws.vcBuf = e.mech.InjectVCs(&pkt.st, ws.vcBuf[:0])
			bestVC := -1
			var bestCred int16
			for _, vc := range ws.vcBuf {
				if c := e.credits[base+int32(vc)]; c > 0 && (bestVC < 0 || c > bestCred) {
					bestVC, bestCred = vc, c
				}
			}
			if bestVC < 0 {
				continue // no space at the switch; retry next cycle
			}
			e.injQ.pop(g)
			invc := base + int32(bestVC)
			e.credits[invc]--
			e.pq[invc/int32(V)].credSum--
			e.injBusy[g] = e.now + int64(e.cfg.PacketPhits)
			if e.injQ.len(g) == 0 {
				w, b := e.maskBit(sw, p)
				e.injMask[w] &^= b
			} else {
				retry = min(retry, e.injBusy[g])
			}
			e.scheduleSw(sw, int64(e.cfg.PacketPhits+e.cfg.LinkLatency), event{kind: evArrive, a: invc, pkt: id})
			e.swProgressed[sw] = true
		}
	}
	e.act.retry[sw] = retry
}

// portq packs the per-gport words of the allocation cost function (see
// the engine field comment).
type portq struct {
	outTotal int16 // outQ.len() + the pending evXferDones into the port
	// credSum is the sum of credits over the port's own INPUT VCs: the
	// free space of the buffers this port receives into, i.e. of the
	// reverse direction of its link. In the sender-indexed ledger that is
	// the sum of credits[up[gp]*V .. +V).
	credSum int16
}

// qCost computes the allocation cost Q of requesting (gport, vc). Section 3
// counts the requested queue twice plus the rest of the port's queues, the
// occupancy of a queue being its output-buffer share plus the consumed
// credits of the downstream input buffer. The requested queue is priced
// exactly so. The "rest of the port" term is not: it adds the port's whole
// output occupancy and the consumed credits of the port's own input
// buffers (pq.credSum) — the packets waiting to cross the link the other
// way — where the paper means the downstream buffers of the other VCs,
// V·InputBufPkts minus the sum of credits[gport*V .. +V). Every cached
// result and golden digest of hyperx-sim/4 is computed with the term as it
// stands, so it stays until an engine-version bump (README, "Engine
// architecture").
func (e *engine) qCost(gport int32, vc int, eject bool) int64 {
	V := int32(e.V)
	pq := &e.pq[gport]
	outTotal := int64(pq.outTotal)
	qs := int64(e.outVCCount[gport*V+int32(vc)])
	if eject {
		// No downstream credits: the server always sinks.
		return qs + outTotal
	}
	qs += int64(e.cfg.InputBufPkts) - int64(e.credits[gport*V+int32(vc)])
	consumed := int64(V)*int64(e.cfg.InputBufPkts) - int64(pq.credSum)
	return qs + outTotal + consumed
}

// penaltyCost converts a penalty in phits to cost units (packets are the
// occupancy unit, so penalties scale by the packet length), weighted by the
// configured PenaltyWeight. The known penalty constants are all small, so
// the float conversion is precomputed per value at engine construction —
// with the identical expression, so costs (and therefore routes and cached
// results) are bit-for-bit unchanged; out-of-range penalties from custom
// mechanisms fall back to the direct computation.
func (e *engine) penaltyCost(p int32) int64 {
	if uint32(p) < uint32(len(e.penCost)) {
		return e.penCost[p]
	}
	return int64(e.cfg.PenaltyWeight * float64(p) / float64(e.cfg.PacketPhits))
}

// allocateSwitch is the per-switch half of the allocation step: it gathers
// one request per eligible head packet of switch sw and arbitrates them with
// per-output buckets, leaving the winners in sw's granted list for the
// commit phase. It reads and writes only switch-local state — the credits
// it reads are its own outputs', the head cache its own region — so
// switches allocate in parallel.
//
// Arbitration walks the output ports in index order; within an output the
// bucket is served in ascending (cost, tie) order — the per-output-local
// policy of Section 3, without the former global sort over every request
// in flight. A request that arbitration must refuse whatever else its
// bucket holds (refused) never enters one: a refusal spends nothing that
// another request is checked against, so dropping it early grants the same
// set. The full-walk oracle keeps such requests and lets arbitration
// refuse them.
func (e *engine) allocateSwitch(sw int32, ws *workerScratch) {
	granted := e.granted[sw][:0]
	tr := &e.tie[sw]
	V := e.V
	speedup := int8(e.cfg.XbarSpeedup)
	gpBase := sw * int32(e.P)
	nreq := 0
	// retry records WHY the queued heads could not advance. A head that
	// was priced was *eligible*: it drew tie-break randomness. If
	// arbitration then dropped it — it lost a slot race, or waits on a
	// downstream credit only a remote switch can return — the full walk
	// would draw for it again next cycle, so the switch must stay hot
	// (now+1). If every eligible head was GRANTED, nothing draws before a
	// provable local time: commit is about to make each granted VC busy
	// until now+xfer, so a queued successor head retries then, and the
	// other heads wait on busy-untils recorded here. Heads on saturated
	// ports wake through a pending evCredit, which nextEvent bounds.
	retry := nwNever
	nEligible := 0
	for i := 0; i < e.maskWords; i++ {
		// The occupied ports in ascending order: a cleared bit means every
		// VC ring of the port is empty, so skipping it drops no request and
		// no retry bound.
		for m := e.scanWord(e.inMask, sw, i, 0); m != 0; m &= m - 1 {
			gport := gpBase + int32(i<<6+bits.TrailingZeros64(m))
			if e.inInflight[gport] >= speedup {
				continue
			}
			invc := gport * int32(V)
			for vc := 0; vc < V; vc, invc = vc+1, invc+1 {
				if e.inQ.len(invc) == 0 {
					continue
				}
				if busy := e.inBusyUntil[invc]; busy > e.now {
					retry = min(retry, busy)
					continue
				}
				nEligible++
				var req request
				var ok bool
				if e.fullWalk {
					req, ok = e.bestRequest(sw, gport, invc, vc, tr, ws)
				} else {
					req, ok = e.headRequest(sw, gport, invc, vc, tr, ws)
					ok = ok && !e.refused(&req)
				}
				if ok {
					lp := int(req.outPort - gpBase)
					ws.bucket[lp] = append(ws.bucket[lp], req)
					nreq++
				}
			}
		}
	}
	if nreq > 0 {
		for i := range ws.inUsed {
			ws.inUsed[i] = 0
		}
		for p := 0; p < e.P; p++ {
			b := ws.bucket[p]
			if len(b) == 0 {
				continue
			}
			sortRequests(b)
			gport := gpBase + int32(p)
			if slots := e.outSlots(gport); slots > 0 {
				for vc := 0; vc < V; vc++ {
					ws.vcUsed[vc] = 0
				}
				nGranted := 0
				for i := range b {
					if nGranted >= slots {
						break
					}
					rq := &b[i]
					inLocal := int(rq.inPort - gpBase)
					if int(e.inInflight[rq.inPort])+int(ws.inUsed[inLocal]) >= int(speedup) {
						continue
					}
					if !rq.eject {
						if int(e.credits[gport*int32(V)+int32(rq.vc)])-int(ws.vcUsed[rq.vc]) <= 0 {
							continue
						}
						ws.vcUsed[rq.vc]++
					}
					ws.inUsed[inLocal]++
					nGranted++
					granted = append(granted, *rq)
				}
			}
			ws.bucket[p] = b[:0]
		}
	}
	e.granted[sw] = granted
	if nEligible > len(granted) {
		// Some eligible head was not granted (a head makes exactly one
		// request, so equal counts mean a bijection): it re-draws next
		// cycle, full stop.
		retry = e.now + 1
	} else if nEligible > 0 {
		// All eligible heads granted. A successor behind a granted head
		// becomes eligible when its VC's transfer finishes.
		for i := range granted {
			if e.inQ.len(granted[i].invc) > 1 {
				retry = min(retry, e.now+e.cfg.xferCycles())
				break // every grant sets the same busy-until
			}
		}
	}
	e.act.retry[sw] = min(e.act.retry[sw], retry)
}

// outSlots is how many grants output gport can take this cycle: the
// crossbar slots it has left (the speedup less the transfers into it,
// outTotal less what is queued) or its free buffer space, whichever is
// fewer. Allocation changes neither, so the figure holds for the whole
// phase.
func (e *engine) outSlots(gport int32) int {
	total := int(e.pq[gport].outTotal)
	return min(e.cfg.XbarSpeedup-total+e.outQ.len(gport), e.cfg.OutputBufPkts-total)
}

// refused reports whether arbitration must turn rq down whatever else its
// bucket holds: its output has no slot this cycle, or its VC, on a link,
// has no credit.
func (e *engine) refused(rq *request) bool {
	return e.outSlots(rq.outPort) <= 0 || (!rq.eject && e.credits[rq.outPort*int32(e.V)+int32(rq.vc)] <= 0)
}

// sortRequests orders a bucket by (cost, tie) ascending. Buckets are small
// (bounded by the switch's input VCs), so insertion sort beats sort.Slice
// and allocates nothing.
func sortRequests(b []request) {
	for i := 1; i < len(b); i++ {
		r := b[i]
		j := i - 1
		for j >= 0 && (b[j].cost > r.cost || (b[j].cost == r.cost && b[j].tie > r.tie)) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = r
	}
}

// bestRequest computes the single request of the head packet of input VC
// invc: the candidate with the lowest Q+P, random tie-break (Section 3).
// Flow control is NOT part of the choice — if the cheapest candidate is
// blocked, the packet waits and retries, rather than deviating onto a more
// expensive path; the rising Q of the blocked port shifts the choice only
// under sustained congestion. The request is dropped at arbitration time if
// flow control still fails. Tie-break randomness draws from the switch's
// own stream tr = &e.tie[sw], so the draw sequence depends only on the
// switch's local traffic, never on the worker count.
//
// It recomputes the candidates on every call: the full-walk oracle's
// reference for headRequest, which the engine calls instead.
func (e *engine) bestRequest(sw, gport, invc int32, curVC int, tr *rng.Rand, ws *workerScratch) (request, bool) {
	id := e.inQ.peek(invc)
	pkt := &e.pool[id]
	gpBase := sw * int32(e.P)
	var best request
	found := false
	consider := func(outPort int32, vc int, penalty int32, eject bool) {
		cost := e.qCost(outPort, vc, eject) + e.penaltyCost(penalty)
		tie := uint32(tr.Uint64())
		if !found || cost < best.cost || (cost == best.cost && tie < best.tie) {
			best = request{
				cost: cost, tie: tie, invc: invc, inPort: gport,
				outPort: outPort, pkt: id, vc: int8(vc), eject: eject,
			}
			found = true
		}
	}
	if pkt.st.Dst == sw {
		consider(gpBase+int32(e.R)+int32(pkt.dstLocal), 0, 0, true)
		return best, found
	}
	ws.cands = e.mech.Candidates(sw, &pkt.st, curVC, &ws.rscr, ws.cands[:0])
	for _, c := range ws.cands {
		consider(gpBase+int32(c.Port), c.VC, c.Penalty, false)
	}
	return best, found
}

// Head-cache states (hcLen) and sizes.
const (
	hcUnseen = 0 // not evaluated since it became the head
	hcSeen   = 1 // evaluated, not cached: priced from Candidates
	hcCached = 2 // hcLen - hcCached packed entries at hcOff

	hcMaxLen     = 255 - hcCached // the longest list hcLen can hold
	hcArenaPerVC = 2              // arena entries per input VC of a switch
	hcMaxOffset  = 1 << 16        // hcOff is a uint16
)

// hcPack packs one candidate into a head-cache entry: the local output
// port in bits 24-31, the VC in 16-23 and the penalty cost, as an int16,
// in 0-15. ok is false when a field does not fit.
func hcPack(port, vc int, pcost int64) (uint32, bool) {
	if uint(port) > 255 || uint(vc) > 255 || pcost != int64(int16(pcost)) {
		return 0, false
	}
	return uint32(port)<<24 | uint32(vc)<<16 | uint32(uint16(pcost)), true
}

// headRequest is bestRequest over the head cache: the same candidates in
// the same order with one tie-break draw each, so the same request. A
// head's first evaluation prices Mechanism.Candidates and marks it seen,
// its second also fills its list (fillHead), and every later one until it
// pops prices the packed entries. Most heads at low load are granted on
// their first evaluation and never pay for a fill. An ejecting head has a
// single candidate and bypasses the cache.
func (e *engine) headRequest(sw, gport, invc int32, curVC int, tr *rng.Rand, ws *workerScratch) (request, bool) {
	id := e.inQ.peek(invc)
	pkt := &e.pool[id]
	gpBase := sw * int32(e.P)
	if pkt.st.Dst == sw {
		out := gpBase + int32(e.R) + int32(pkt.dstLocal)
		return request{
			cost: e.qCost(out, 0, true) + e.penaltyCost(0), tie: uint32(tr.Uint64()),
			invc: invc, inPort: gport, outPort: out, pkt: id, eject: true,
		}, true
	}
	var (
		bestCost int64
		bestTie  uint32
		bestOut  int32
		bestVC   int
		found    bool
	)
	if n := int(e.hcLen[invc]); n >= hcCached {
		off := int(sw)*e.hcCap + int(e.hcOff[invc])
		for _, h := range e.hcArena[off : off+n-hcCached] {
			out, vc := gpBase+int32(h>>24), int(h>>16&0xff)
			cost := e.qCost(out, vc, false) + int64(int16(h))
			tie := uint32(tr.Uint64())
			if !found || cost < bestCost || (cost == bestCost && tie < bestTie) {
				bestCost, bestTie, bestOut, bestVC, found = cost, tie, out, vc, true
			}
		}
	} else {
		ws.cands = e.mech.Candidates(sw, &pkt.st, curVC, &ws.rscr, ws.cands[:0])
		if n == hcUnseen {
			e.hcLen[invc] = hcSeen
		} else {
			e.fillHead(sw, invc, ws.cands)
		}
		for _, c := range ws.cands {
			out := gpBase + int32(c.Port)
			cost := e.qCost(out, c.VC, false) + e.penaltyCost(c.Penalty)
			tie := uint32(tr.Uint64())
			if !found || cost < bestCost || (cost == bestCost && tie < bestTie) {
				bestCost, bestTie, bestOut, bestVC, found = cost, tie, out, c.VC, true
			}
		}
	}
	if !found {
		return request{}, false
	}
	return request{
		cost: bestCost, tie: bestTie, invc: invc, inPort: gport,
		outPort: bestOut, pkt: id, vc: int8(bestVC),
	}, true
}

// fillHead caches cands as the head list of input VC invc in switch sw's
// arena region. A region without room for the list first resets the whole
// switch's cache. A list that hcLen or hcPack cannot hold leaves the head
// uncached: it is priced from Candidates on every evaluation.
func (e *engine) fillHead(sw, invc int32, cands []routing.Candidate) {
	n := len(cands)
	if n > hcMaxLen || n > e.hcCap {
		return
	}
	top := int(e.hcTop[sw])
	if top+n > e.hcCap {
		vcs := e.P * e.V
		clear(e.hcLen[int(sw)*vcs : (int(sw)+1)*vcs])
		top = 0
	}
	dst := e.hcArena[int(sw)*e.hcCap+top:][:n]
	for i, c := range cands {
		h, ok := hcPack(c.Port, c.VC, e.penaltyCost(c.Penalty))
		if !ok {
			return
		}
		dst[i] = h
	}
	e.hcTop[sw] = uint32(top + n)
	e.hcOff[invc] = uint16(top)
	e.hcLen[invc] = uint8(hcCached + n)
}

// dropHeads empties the head cache: a table rebuild changes what
// Candidates returns, and a restored engine starts without a cache.
func (e *engine) dropHeads() {
	clear(e.hcLen)
	clear(e.hcTop)
}

// commitSwitch applies switch sw's arbitration winners: the write half of
// the allocation step. The only state it touches outside the switch is the
// credit sum of the input port a grant sends into, which no other switch
// reads or writes during this phase.
func (e *engine) commitSwitch(sw int32) {
	granted := e.granted[sw]
	V := int32(e.V)
	xfer := e.cfg.xferCycles()
	for i := range granted {
		rq := &granted[i]
		if !rq.eject {
			e.credits[rq.outPort*V+int32(rq.vc)]--
			e.pq[e.up[rq.outPort]].credSum--
		}
		e.inQ.pop(rq.invc)
		e.hcLen[rq.invc] = hcUnseen // the next head has a list of its own
		// The port's V ring headers are adjacent 4-byte words (ring.go): the
		// whole-port check reads the cache line the pop just wrote.
		if e.inQ.len(rq.invc) == 0 && e.inQ.allEmpty(rq.inPort*V, e.V) {
			w, b := e.maskBit(sw, int(rq.inPort-sw*int32(e.P)))
			e.inMask[w] &^= b
		}
		e.inBusyUntil[rq.invc] = e.now + xfer
		e.inInflight[rq.inPort]++
		e.pq[rq.outPort].outTotal++
		e.outVCCount[rq.outPort*V+int32(rq.vc)]++
		if !rq.eject {
			port := int(rq.outPort % int32(e.P))
			e.mech.Advance(sw, port, int(rq.vc), &e.pool[rq.pkt].st)
		}
		// The packet's tail leaves the input buffer after the transfer: the
		// evCredit then frees the input slot (credit to the upstream sender)
		// and the input port's crossbar slot; the packet lands in the output
		// buffer one crossbar latency later.
		e.scheduleSw(sw, xfer, event{kind: evCredit, a: rq.invc})
		e.scheduleSw(sw, xfer+int64(e.cfg.XbarLatency), event{kind: evXferDone, a: rq.outPort, vc: rq.vc, pkt: rq.pkt})
		e.swProgressed[sw] = true
	}
}

// transmitSwitch moves switch sw's output-buffer heads onto links and
// ejection channels. Link arrivals land on a neighbor's calendar, so they
// stage in the switch's outbox for the deterministic merge.
func (e *engine) transmitSwitch(sw int32) {
	serial := int64(e.cfg.PacketPhits)
	arriveDelay := serial + int64(e.cfg.LinkLatency)
	V := int32(e.V)
	gpBase := sw * int32(e.P)
	// retry: the earliest serializer release over ports that still hold
	// queued output packets after this cycle's pops.
	retry := nwNever
	// Visit the occupied output ports (the full walk: every port): a
	// cleared bit is an empty buffer, which the full scan skips on its
	// first check anyway.
	for i := 0; i < e.maskWords; i++ {
		for m := e.scanWord(e.outMask, sw, i, 0); m != 0; m &= m - 1 {
			p := i<<6 + bits.TrailingZeros64(m)
			gport := gpBase + int32(p)
			if e.outQ.len(gport) == 0 {
				continue
			}
			if e.outBusy[gport] > e.now {
				retry = min(retry, e.outBusy[gport])
				continue
			}
			id, vc := e.outQ.popVC(gport)
			e.pq[gport].outTotal--
			left := e.outQ.len(gport)
			if left == 0 {
				w, b := e.maskBit(sw, p)
				e.outMask[w] &^= b
			}
			e.outBusy[gport] = e.now + serial
			if left > 0 {
				retry = min(retry, e.outBusy[gport])
			}
			e.outVCCount[gport*V+int32(vc)]--
			e.swProgressed[sw] = true
			if p >= e.R {
				// Ejection: the server consumes the packet after serialization.
				e.scheduleSw(sw, arriveDelay, event{kind: evDeliver, pkt: id})
				continue
			}
			if e.now >= e.warmStart && e.now < e.warmEnd {
				e.win[sw].linkBusy += serial
			}
			e.outbox[sw] = append(e.outbox[sw], timedEvent{
				at: e.now + arriveDelay,
				ev: event{kind: evArrive, a: e.up[gport]*V + int32(vc), pkt: id},
			})
		}
	}
	e.act.retry[sw] = min(e.act.retry[sw], retry)
}
