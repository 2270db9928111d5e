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

// TestPolarizedCandidatesEqualReference: the LUT scan over the narrow
// table returns what Table 1 spelled out returns — ports, order, penalties —
// at random (source, target, current, header bit) states, on HyperX with
// word-unaligned switch counts, Torus and Dragonfly, fault-free and
// faulted, after a fresh build and after an in-place rebuild.
func TestPolarizedCandidatesEqualReference(t *testing.T) {
	specs := []topo.Spec{
		{Kind: topo.KindHyperX, Dims: []int{8, 8, 8}},
		{Kind: topo.KindHyperX, Dims: []int{3, 5, 4}},
		{Kind: topo.KindHyperX, Dims: []int{5, 13}},
		{Kind: topo.KindTorus, Dims: []int{4, 5}},
		{Kind: topo.KindDragonfly, Dims: []int{4, 2}},
	}
	r := rng.New(0x9013)
	refNetworks(t, specs, func(name string, nw *topo.Network, rebuilt bool) {
		from := nw
		if rebuilt {
			from = topo.NewNetwork(nw.H, nil)
		}
		alg, err := NewPolarized(from)
		if err == nil && rebuilt {
			err = alg.Rebuild(nw)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := nw.H.Switches()
		var got, want []PortCandidate
		for i := 0; i < refSamples; i++ {
			st := PacketState{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n)), CloserToSrc: r.Intn(2) == 0}
			cur := int32(r.Intn(n))
			got = alg.PortCandidates(cur, &st, got[:0])
			want = refPolarizedCandidates(nw, alg.Tables(), cur, &st, want[:0])
			if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%s: at %d, %+v: candidates %v, reference says %v", name, cur, st, got, want)
			}
		}
	})
}

// TestOmniCandidatesEqualReference: the live-table scan with the minimal
// port derived from its slot returns what the coordinate-decoding scan
// returns, with and without deroute budget left, and Advance classifies
// every offered hop the same way.
func TestOmniCandidatesEqualReference(t *testing.T) {
	specs := []topo.Spec{
		{Kind: topo.KindHyperX, Dims: []int{8, 8, 8}},
		{Kind: topo.KindHyperX, Dims: []int{3, 5, 4}},
		{Kind: topo.KindHyperX, Dims: []int{5, 13}},
	}
	r := rng.New(0x0311)
	refNetworks(t, specs, func(name string, nw *topo.Network, rebuilt bool) {
		from := nw
		if rebuilt {
			from = topo.NewNetwork(nw.H, nil)
		}
		alg, err := NewOmni(from)
		if err == nil && rebuilt {
			err = alg.Rebuild(nw)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := nw.H.(*topo.HyperX)
		n := h.Switches()
		var got, want []PortCandidate
		for i := 0; i < refSamples; i++ {
			st := PacketState{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n)), Deroutes: int32(r.Intn(h.NDims() + 1))}
			cur := int32(r.Intn(n))
			got = alg.PortCandidates(cur, &st, got[:0])
			want = refOmniCandidates(nw, alg.maxDeroute, cur, &st, want[:0])
			if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%s: at %d, %+v: candidates %v, reference says %v", name, cur, st, got, want)
			}
			for _, c := range got {
				a, b := st, st
				alg.Advance(cur, c.Port, &a)
				refOmniAdvance(h, cur, c.Port, &b)
				if a != b {
					t.Fatalf("%s: at %d through port %d: Advance gives %+v, reference %+v", name, cur, c.Port, a, b)
				}
			}
		}
	})
}
