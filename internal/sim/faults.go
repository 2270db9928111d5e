package sim

import (
	"fmt"
	"sort"

	"repro/internal/topo"
)

// FaultEvent schedules a link failure during a run: at the start of Cycle
// the link goes down, packets queued in the dead ports' output buffers (and
// any mid-crossbar toward them) are lost, the routing mechanism's tables
// are rebuilt by BFS, and traffic continues — the paper's operational
// story ("these tables can be computed by a BFS algorithm when the
// topology changes").
type FaultEvent struct {
	Cycle int64
	Edge  topo.Edge
}

// sortFaultSchedule validates and orders the schedule.
func sortFaultSchedule(events []FaultEvent) ([]FaultEvent, error) {
	out := append([]FaultEvent(nil), events...)
	for _, ev := range out {
		if ev.Cycle < 0 {
			return nil, fmt.Errorf("sim: fault event at negative cycle %d", ev.Cycle)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return out, nil
}

// applyDueFaults fails every link scheduled at or before the current cycle
// and rebuilds the mechanism's tables once, which empties the head cache.
// It returns an error when a fault names a non-link, an already-failed
// link, or disconnects the network (table rebuild fails).
func (e *engine) applyDueFaults() error {
	applied := false
	for e.nextFault < len(e.faultSchedule) && e.faultSchedule[e.nextFault].Cycle <= e.now {
		ev := e.faultSchedule[e.nextFault]
		e.nextFault++
		if err := e.failLink(ev.Edge); err != nil {
			return err
		}
		applied = true
	}
	if !applied {
		return nil
	}
	if err := e.mech.Rebuild(e.nw); err != nil {
		return fmt.Errorf("sim: table rebuild after fault at cycle %d: %w", e.now, err)
	}
	e.dropHeads()
	return nil
}

// failLink takes one link down: it marks the link dead, then drains its
// two ports.
func (e *engine) failLink(edge topo.Edge) error {
	ends, err := e.markLinkDead(edge)
	if err != nil {
		return err
	}
	for _, gp := range ends {
		e.drainDeadPort(gp)
	}
	return nil
}

// markLinkDead is the half of a link failure that is a function of the
// fault schedule alone: the edge joins the network's fault set and its two
// ports are dead. A snapshot restore replays it for the faults the
// capturing run had applied; the drain is in the snapshot's queues
// already. It returns the link's two global ports, or an error for an
// edge that is no link of the network or has failed already.
func (e *engine) markLinkDead(edge topo.Edge) ([2]int32, error) {
	h := e.nw.H
	pU := -1
	if min(edge.U, edge.V) >= 0 && max(edge.U, edge.V) < int32(e.S) {
		pU = h.PortTo(edge.U, edge.V)
	}
	if pU < 0 {
		return [2]int32{}, fmt.Errorf("sim: fault (%d,%d) is not a link of %s", edge.U, edge.V, h)
	}
	if e.nw.Faults.Has(edge.U, edge.V) {
		return [2]int32{}, fmt.Errorf("sim: link (%d,%d) already failed", edge.U, edge.V)
	}
	e.nw.Faults.Add(edge.U, edge.V)
	ends := [2]int32{
		edge.U*int32(e.P) + int32(pU),
		edge.V*int32(e.P) + int32(h.PortTo(edge.V, edge.U)),
	}
	for _, gp := range ends {
		e.portDead[gp] = true
	}
	return ends, nil
}

// drainDeadPort loses the packets already committed to a dead port's
// output buffer with the link. In-flight crossbar transfers toward the
// port are dropped on completion (see evXferDone handling).
func (e *engine) drainDeadPort(gp int32) {
	sw := gp / int32(e.P)
	for e.outQ.len(gp) > 0 {
		id, vc := e.outQ.popVC(gp)
		e.pq[gp].outTotal--
		e.outVCCount[gp*int32(e.V)+int32(vc)]--
		e.losePacket(id)
	}
	w, b := e.maskBit(sw, int(gp%int32(e.P)))
	e.outMask[w] &^= b
}

// losePacket retires a packet lost to a link failure.
func (e *engine) losePacket(id int32) {
	e.lostPkts++
	e.freePacket(id)
}
