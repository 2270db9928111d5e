package routing

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/topo"
)

// refPolarizedCandidates is Table 1 spelled out, one port at a time, from
// the network's own fault set and the distance accessor: the reference the
// table-driven scan of PolarizedAlg.PortCandidates must reproduce port for
// port, in order, with the same penalties.
func refPolarizedCandidates(nw *topo.Network, tab *Tables, cur int32, st *PacketState, buf []PortCandidate) []PortCandidate {
	if cur == st.Dst {
		return buf
	}
	for port := 0; port < nw.H.SwitchRadix(); port++ {
		if !nw.PortAlive(cur, port) {
			continue
		}
		next := nw.H.PortNeighbor(cur, port)
		ds := tab.D(st.Src, next) - tab.D(st.Src, cur)
		dt := tab.D(st.Dst, next) - tab.D(st.Dst, cur)
		var penalty int32 = -1
		switch {
		case ds == 1 && dt == -1:
			penalty = PenaltyPolarized2
		case ds == 1 && dt == 0, ds == 0 && dt == -1:
			penalty = PenaltyPolarized1
		case ds == 1 && dt == 1 && st.CloserToSrc:
			penalty = PenaltyPolarized0
		case ds == -1 && dt == -1 && !st.CloserToSrc:
			penalty = PenaltyPolarized0
		}
		if penalty >= 0 {
			buf = append(buf, PortCandidate{Port: port, Penalty: penalty})
		}
	}
	return buf
}

// refOmniCandidates is the coordinate-driven scan OmniAlg ran before it
// read the live-neighbor table: a fault-set probe and two coordinate
// decodes per port.
func refOmniCandidates(nw *topo.Network, maxDeroute int32, cur int32, st *PacketState, buf []PortCandidate) []PortCandidate {
	if cur == st.Dst {
		return buf
	}
	h := nw.H.(*topo.HyperX)
	allowDeroute := st.Deroutes < maxDeroute
	for dim := 0; dim < h.NDims(); dim++ {
		want := h.CoordAt(st.Dst, dim)
		if h.CoordAt(cur, dim) == want {
			continue
		}
		lo, hi := h.DimPorts(dim)
		for p := lo; p < hi; p++ {
			if !nw.PortAlive(cur, p) {
				continue
			}
			if h.CoordAt(h.PortNeighbor(cur, p), dim) == want {
				buf = append(buf, PortCandidate{Port: p, Penalty: PenaltyMinimal})
			} else if allowDeroute {
				buf = append(buf, PortCandidate{Port: p, Penalty: PenaltyDeroute, Deroute: true})
			}
		}
	}
	return buf
}

// refOmniAdvance likewise, for the hop classification.
func refOmniAdvance(h *topo.HyperX, cur int32, port int, st *PacketState) {
	st.Hops++
	dim := h.PortDim(port)
	if h.CoordAt(h.PortNeighbor(cur, port), dim) == h.CoordAt(st.Dst, dim) {
		st.MinHops++
	} else {
		st.Deroutes++
	}
}

// refPolarizedAdvance is the header-bit update from the topology's own
// port decode and the widening distance accessor.
func refPolarizedAdvance(nw *topo.Network, tab *Tables, cur int32, port int, st *PacketState) {
	st.Hops++
	next := nw.H.PortNeighbor(cur, port)
	st.CloserToSrc = tab.D(st.Src, next) < tab.D(st.Dst, next)
}

// refMinimalCandidates is the scan MinimalAlg ran before it read the
// flattened tables: per port a fault-set probe, a port decode and two
// widened distances.
func refMinimalCandidates(nw *topo.Network, tab *Tables, cur, dst int32, buf []PortCandidate) []PortCandidate {
	if cur == dst {
		return buf
	}
	dc := tab.D(cur, dst)
	for p := 0; p < nw.H.SwitchRadix(); p++ {
		if !nw.PortAlive(cur, p) {
			continue
		}
		if tab.D(nw.H.PortNeighbor(cur, p), dst) == dc-1 {
			buf = append(buf, PortCandidate{Port: p, Penalty: PenaltyMinimal})
		}
	}
	return buf
}

// refValiantCandidates is Valiant over refMinimalCandidates: the phase
// flips on arrival at the intermediate, and the phase names the target.
func refValiantCandidates(nw *topo.Network, tab *Tables, cur int32, st *PacketState, buf []PortCandidate) []PortCandidate {
	if st.Phase == 0 && cur == st.Intermediate {
		st.Phase = 1
	}
	target := st.Dst
	if st.Phase == 0 {
		target = st.Intermediate
	}
	return refMinimalCandidates(nw, tab, cur, target, buf)
}

// refValiantAdvance flips the phase when the hop lands on the intermediate.
func refValiantAdvance(nw *topo.Network, cur int32, port int, st *PacketState) {
	st.Hops++
	if st.Phase == 0 && nw.H.PortNeighbor(cur, port) == st.Intermediate {
		st.Phase = 1
	}
}

// refDORCandidates is DOR from coordinate decodes and the fault set: the
// direct link of the first unaligned dimension, if it is alive.
func refDORCandidates(nw *topo.Network, cur int32, st *PacketState, buf []PortCandidate) []PortCandidate {
	h := nw.H.(*topo.HyperX)
	for dim := 0; dim < h.NDims(); dim++ {
		want := h.CoordAt(st.Dst, dim)
		if h.CoordAt(cur, dim) == want {
			continue
		}
		if p := h.PortTo(cur, h.WithCoord(cur, dim, want)); nw.PortAlive(cur, p) {
			buf = append(buf, PortCandidate{Port: p, Penalty: PenaltyMinimal})
		}
		return buf
	}
	return buf
}

// refDALCandidates is refOmniCandidates with DAL's budget: one deroute per
// dimension, spent when the dimension's bit of DerouteMask is set.
func refDALCandidates(nw *topo.Network, cur int32, st *PacketState, buf []PortCandidate) []PortCandidate {
	if cur == st.Dst {
		return buf
	}
	h := nw.H.(*topo.HyperX)
	for dim := 0; dim < h.NDims(); dim++ {
		want := h.CoordAt(st.Dst, dim)
		if h.CoordAt(cur, dim) == want {
			continue
		}
		spent := st.DerouteMask&(1<<dim) != 0
		lo, hi := h.DimPorts(dim)
		for p := lo; p < hi; p++ {
			if !nw.PortAlive(cur, p) {
				continue
			}
			if h.CoordAt(h.PortNeighbor(cur, p), dim) == want {
				buf = append(buf, PortCandidate{Port: p, Penalty: PenaltyMinimal})
			} else if !spent {
				buf = append(buf, PortCandidate{Port: p, Penalty: PenaltyDeroute, Deroute: true})
			}
		}
	}
	return buf
}

// refDALAdvance classifies the hop and spends the dimension's deroute.
func refDALAdvance(h *topo.HyperX, cur int32, port int, st *PacketState) {
	st.Hops++
	dim := h.PortDim(port)
	if h.CoordAt(h.PortNeighbor(cur, port), dim) == h.CoordAt(st.Dst, dim) {
		st.MinHops++
	} else {
		st.Deroutes++
		st.DerouteMask |= 1 << dim
	}
}

// connectedFaults draws up to want random link failures, skipping any that
// would disconnect the network.
func connectedFaults(sw topo.Switched, want int, seed uint64) *topo.FaultSet {
	faults := topo.NewFaultSet()
	g := topo.GraphOf(sw)
	for _, e := range topo.RandomFaultSequence(sw, seed) {
		if faults.Len() == want {
			break
		}
		if cut := g.RemoveEdges([]topo.Edge{e}); cut.Connected() {
			g = cut
			faults.Add(e.U, e.V)
		}
	}
	return faults
}

// refNetworks yields the networks of the reference comparisons: each
// topology fault-free and under two random connected fault sets, the
// second reached by an in-place Rebuild.
func refNetworks(t *testing.T, specs []topo.Spec, visit func(name string, nw *topo.Network, rebuilt bool)) {
	r := rng.New(0xca9d1d)
	for _, spec := range specs {
		sw, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		links := sw.Switches() * sw.SwitchRadix() / 2
		for trial, want := range []int{0, 1 + r.Intn(links/8), 1 + r.Intn(links/4)} {
			nw := topo.NewNetwork(sw, connectedFaults(sw, want, r.Uint64()))
			visit(fmt.Sprintf("%s/%d faults", spec, nw.Faults.Len()), nw, trial == 2)
		}
	}
}

// refSamples is how many random states each network is compared at.
const refSamples = 20000

// The topologies of the reference comparisons: HyperX with word-unaligned
// switch counts for every algorithm, Torus and Dragonfly too for the
// distance-driven ones.
var (
	refHyperXSpecs = []topo.Spec{
		{Kind: topo.KindHyperX, Dims: []int{8, 8, 8}},
		{Kind: topo.KindHyperX, Dims: []int{3, 5, 4}},
		{Kind: topo.KindHyperX, Dims: []int{5, 13}},
	}
	refAllSpecs = append(refHyperXSpecs[:len(refHyperXSpecs):len(refHyperXSpecs)],
		topo.Spec{Kind: topo.KindTorus, Dims: []int{4, 5}},
		topo.Spec{Kind: topo.KindDragonfly, Dims: []int{4, 2}})
)

// refBuild builds the algorithm of one refNetworks visit: on nw directly,
// or — for the rebuilt network — fault-free first and then rebuilt in place
// onto nw's fault set.
func refBuild[A Algorithm](t *testing.T, name string, nw *topo.Network, rebuilt bool, build func(*topo.Network) (A, error)) A {
	t.Helper()
	from := nw
	if rebuilt {
		from = topo.NewNetwork(nw.H, nil)
	}
	alg, err := build(from)
	if err == nil && rebuilt {
		err = alg.Rebuild(nw)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return alg
}

// sameCandidates fails unless got and want hold the same ports, in the same
// order, with the same penalties and Deroute flags.
func sameCandidates(t *testing.T, name string, cur int32, st PacketState, got, want []PortCandidate) {
	t.Helper()
	if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: at %d, %+v: candidates %v, reference says %v", name, cur, st, got, want)
	}
}

// sameAdvance fails unless Advance and its reference left the same state.
func sameAdvance(t *testing.T, name string, cur int32, port int, got, want PacketState) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: at %d through port %d: Advance gives %+v, reference %+v", name, cur, port, got, want)
	}
}

// TestPolarizedCandidatesEqualReference: the LUT scan over the narrow
// table returns what Table 1 spelled out returns — ports, order, penalties —
// at random (source, target, current, header bit) states, on HyperX with
// word-unaligned switch counts, Torus and Dragonfly, fault-free and
// faulted, after a fresh build and after an in-place rebuild; and Advance
// sets the header bit of every offered hop the same way.
func TestPolarizedCandidatesEqualReference(t *testing.T) {
	r := rng.New(0x9013)
	refNetworks(t, refAllSpecs, func(name string, nw *topo.Network, rebuilt bool) {
		alg := refBuild(t, name, nw, rebuilt, NewPolarized)
		n := nw.H.Switches()
		var got, want []PortCandidate
		for i := 0; i < refSamples; i++ {
			st := PacketState{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n)), CloserToSrc: r.Intn(2) == 0}
			cur := int32(r.Intn(n))
			got = alg.PortCandidates(cur, &st, got[:0])
			want = refPolarizedCandidates(nw, alg.Tables(), cur, &st, want[:0])
			sameCandidates(t, name, cur, st, got, want)
			for _, c := range got {
				a, b := st, st
				alg.Advance(cur, c.Port, &a)
				refPolarizedAdvance(nw, alg.Tables(), cur, c.Port, &b)
				sameAdvance(t, name, cur, c.Port, a, b)
			}
		}
	})
}

// TestMinimalCandidatesEqualReference: the scan over the flattened row and
// the narrow destination row offers the ports the probing scan offers.
func TestMinimalCandidatesEqualReference(t *testing.T) {
	r := rng.New(0x3141)
	refNetworks(t, refAllSpecs, func(name string, nw *topo.Network, rebuilt bool) {
		alg := refBuild(t, name, nw, rebuilt, NewMinimal)
		n := nw.H.Switches()
		var got, want []PortCandidate
		for i := 0; i < refSamples; i++ {
			st := PacketState{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n))}
			cur := int32(r.Intn(n))
			got = alg.PortCandidates(cur, &st, got[:0])
			want = refMinimalCandidates(nw, alg.Tables(), cur, st.Dst, want[:0])
			sameCandidates(t, name, cur, st, got, want)
		}
	})
}

// TestValiantCandidatesEqualReference: both phases, the flip on arrival at
// the intermediate (a sixth of the states stand on it) and the flip in
// Advance when a hop lands on it (another sixth are one hop away).
func TestValiantCandidatesEqualReference(t *testing.T) {
	r := rng.New(0x7a11)
	refNetworks(t, refAllSpecs, func(name string, nw *topo.Network, rebuilt bool) {
		alg := refBuild(t, name, nw, rebuilt, NewValiant)
		tab := alg.min.Tables()
		n, radix := nw.H.Switches(), nw.H.SwitchRadix()
		var got, want []PortCandidate
		for i := 0; i < refSamples; i++ {
			st := PacketState{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n)), Intermediate: int32(r.Intn(n)), Phase: int8(r.Intn(2))}
			cur := int32(r.Intn(n))
			switch r.Intn(6) {
			case 0:
				st.Intermediate = cur
			case 1:
				st.Intermediate = nw.H.PortNeighbor(cur, r.Intn(radix))
			}
			ref := st
			got = alg.PortCandidates(cur, &st, got[:0])
			want = refValiantCandidates(nw, tab, cur, &ref, want[:0])
			sameCandidates(t, name, cur, st, got, want)
			if st != ref {
				t.Fatalf("%s: at %d: PortCandidates leaves %+v, reference %+v", name, cur, st, ref)
			}
			for _, c := range got {
				a, b := st, st
				alg.Advance(cur, c.Port, &a)
				refValiantAdvance(nw, cur, c.Port, &b)
				sameAdvance(t, name, cur, c.Port, a, b)
			}
		}
	})
}

// TestOmniCandidatesEqualReference: the live-table scan with the minimal
// port derived from its slot returns what the coordinate-decoding scan
// returns, with and without deroute budget left, and Advance classifies
// every offered hop the same way.
func TestOmniCandidatesEqualReference(t *testing.T) {
	r := rng.New(0x0311)
	refNetworks(t, refHyperXSpecs, func(name string, nw *topo.Network, rebuilt bool) {
		alg := refBuild(t, name, nw, rebuilt, NewOmni)
		h := nw.H.(*topo.HyperX)
		n := h.Switches()
		var got, want []PortCandidate
		for i := 0; i < refSamples; i++ {
			st := PacketState{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n)), Deroutes: int32(r.Intn(h.NDims() + 1))}
			cur := int32(r.Intn(n))
			got = alg.PortCandidates(cur, &st, got[:0])
			want = refOmniCandidates(nw, alg.maxDeroute, cur, &st, want[:0])
			sameCandidates(t, name, cur, st, got, want)
			for _, c := range got {
				a, b := st, st
				alg.Advance(cur, c.Port, &a)
				refOmniAdvance(h, cur, c.Port, &b)
				sameAdvance(t, name, cur, c.Port, a, b)
			}
		}
	})
}

// TestDORCandidatesEqualReference: the coordinate-table lookup names the
// port the coordinate decodes name, and drops it when its link is dead.
func TestDORCandidatesEqualReference(t *testing.T) {
	r := rng.New(0xd012)
	refNetworks(t, refHyperXSpecs, func(name string, nw *topo.Network, rebuilt bool) {
		alg := refBuild(t, name, nw, rebuilt, NewDOR)
		n := nw.H.Switches()
		var got, want []PortCandidate
		for i := 0; i < refSamples; i++ {
			st := PacketState{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n))}
			cur := int32(r.Intn(n))
			got = alg.PortCandidates(cur, &st, got[:0])
			want = refDORCandidates(nw, cur, &st, want[:0])
			sameCandidates(t, name, cur, st, got, want)
		}
	})
}

// TestDALCandidatesEqualReference: the scan shared with Omnidimensional,
// under every combination of spent dimensions, and Advance's hop
// classification and DerouteMask update.
func TestDALCandidatesEqualReference(t *testing.T) {
	r := rng.New(0xda12)
	refNetworks(t, refHyperXSpecs, func(name string, nw *topo.Network, rebuilt bool) {
		alg := refBuild(t, name, nw, rebuilt, NewDAL)
		h := nw.H.(*topo.HyperX)
		n := h.Switches()
		var got, want []PortCandidate
		for i := 0; i < refSamples; i++ {
			st := PacketState{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n)), DerouteMask: int32(r.Intn(1 << h.NDims()))}
			cur := int32(r.Intn(n))
			got = alg.PortCandidates(cur, &st, got[:0])
			want = refDALCandidates(nw, cur, &st, want[:0])
			sameCandidates(t, name, cur, st, got, want)
			for _, c := range got {
				a, b := st, st
				alg.Advance(cur, c.Port, &a)
				refDALAdvance(h, cur, c.Port, &b)
				sameAdvance(t, name, cur, c.Port, a, b)
			}
		}
	})
}

// TestLadderCandidatesEmissionOrder pins the (port, VC) order of
// Ladder.Candidates, which the engine's tie-breaking makes part of every
// Result: ports in scan order, VC base at step 1, base then base+1 per port
// at step 2, the base clamped to the last step of the ladder.
func TestLadderCandidatesEmissionOrder(t *testing.T) {
	h := topo.MustHyperX(3, 5, 4)
	nw := topo.NewNetwork(h, connectedFaults(h, 12, 5))
	alg, err := NewMinimal(nw)
	if err != nil {
		t.Fatal(err)
	}
	const vcs = 6
	r := rng.New(0x1add)
	for _, step := range []int{1, 2} {
		l, err := NewLadder(alg, vcs, step, "")
		if err != nil {
			t.Fatal(err)
		}
		var scr Scratch
		var got, want []Candidate
		var ports []PortCandidate
		for i := 0; i < refSamples; i++ {
			st := PacketState{Src: int32(r.Intn(60)), Dst: int32(r.Intn(60)), Hops: int32(r.Intn(vcs + 2))}
			cur := int32(r.Intn(60))
			got = l.Candidates(cur, &st, 0, &scr, got[:0])
			base := min(int(st.Hops)*step, vcs-step)
			ports = refMinimalCandidates(nw, alg.Tables(), cur, st.Dst, ports[:0])
			want = want[:0]
			for _, pc := range ports {
				for vc := base; vc < base+step; vc++ {
					want = append(want, Candidate{Port: pc.Port, VC: vc, Penalty: pc.Penalty})
				}
			}
			if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("step %d: at %d, %+v: candidates %v, want %v", step, cur, st, got, want)
			}
		}
	}
}
