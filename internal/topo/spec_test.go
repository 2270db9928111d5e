package topo

import (
	"math"
	"reflect"
	"testing"
)

// TestSpecRoundTrip checks Build(SpecOf(t)) rebuilds an equivalent topology
// for every family: same switch count, radix and edge set (which pins the
// port numbering the routing stack depends on).
func TestSpecRoundTrip(t *testing.T) {
	for _, orig := range []Switched{
		MustHyperX(4, 4),
		MustHyperX(3, 4, 5),
		MustTorus(4, 5),
		MustDragonfly(6, 2),
	} {
		spec, err := SpecOf(orig)
		if err != nil {
			t.Fatalf("%s: %v", orig, err)
		}
		rebuilt, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: rebuild: %v", spec, err)
		}
		if rebuilt.Switches() != orig.Switches() || rebuilt.SwitchRadix() != orig.SwitchRadix() {
			t.Errorf("%s: rebuilt %d switches radix %d, want %d/%d",
				spec, rebuilt.Switches(), rebuilt.SwitchRadix(), orig.Switches(), orig.SwitchRadix())
		}
		if !reflect.DeepEqual(rebuilt.Edges(), orig.Edges()) {
			t.Errorf("%s: rebuilt edge set differs", spec)
		}
		if rebuilt.String() != orig.String() {
			t.Errorf("%s: rebuilt as %q, want %q", spec, rebuilt.String(), orig.String())
		}
	}
}

// TestSpecIndependentDims checks SpecOf snapshots the dims rather than
// aliasing the topology's internal slice.
func TestSpecIndependentDims(t *testing.T) {
	h := MustHyperX(4, 4)
	spec, err := SpecOf(h)
	if err != nil {
		t.Fatal(err)
	}
	spec.Dims[0] = 99
	if h.Dims()[0] != 4 {
		t.Error("mutating the spec changed the topology")
	}
}

func TestSpecErrors(t *testing.T) {
	if _, err := (Spec{Kind: "banyan", Dims: []int{4}}).Build(); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := (Spec{Kind: KindHyperX, Dims: []int{1}}).Build(); err == nil {
		t.Error("invalid hyperx side accepted")
	}
	if _, err := (Spec{Kind: KindDragonfly, Dims: []int{6}}).Build(); err == nil {
		t.Error("dragonfly with one parameter accepted")
	}
	if err := (Spec{Kind: KindTorus, Dims: []int{4, 4}}).Validate(); err != nil {
		t.Errorf("valid torus rejected: %v", err)
	}
}

func TestSpecString(t *testing.T) {
	spec, err := SpecOf(MustHyperX(8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != "hyperx 8x8x8" {
		t.Errorf("spec string %q", got)
	}
}

// TestFaultSetEdgesRoundTrip pins the fault-set leg of spec serialization:
// Edges() -> NewFaultSet reproduces the set, and Edges() is sorted so the
// canonical encodings of equal sets match.
func TestFaultSetEdgesRoundTrip(t *testing.T) {
	f := NewFaultSet(Edge{U: 5, V: 2}, Edge{U: 1, V: 3}, Edge{U: 2, V: 5})
	edges := f.Edges()
	if len(edges) != 2 {
		t.Fatalf("got %d edges, want 2 (duplicate collapsed)", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i-1].U > edges[i].U || (edges[i-1].U == edges[i].U && edges[i-1].V >= edges[i].V) {
			t.Errorf("edges not sorted: %v", edges)
		}
	}
	g := NewFaultSet(edges...)
	if !reflect.DeepEqual(g.Edges(), edges) {
		t.Error("fault set did not round-trip through Edges")
	}
	if !g.Has(5, 2) || !g.Has(3, 1) {
		t.Error("round-tripped set lost membership")
	}
}

// TestTopologySizeBound: dimensions arrive from flags and sockets, so a
// network past MaxSwitches is an error from every constructor — whatever
// the switch count overflows to, and before anything is allocated that the
// dimensions size (a side-2^30 HyperX used to get its 2^30-entry portDim)
// — while the largest network the README sizes still builds.
func TestTopologySizeBound(t *testing.T) {
	for _, s := range []Spec{
		{KindHyperX, []int{1 << 30}},
		{KindHyperX, []int{2, math.MaxInt}}, // the product wraps to -2
		{KindHyperX, []int{256, 257}},
		{KindTorus, []int{MaxSwitches + 1}},
		{KindTorus, []int{4, math.MaxInt}},
		{KindDragonfly, []int{math.MaxInt, 1}},
		{KindDragonfly, []int{1 << 31, 1 << 31}}, // a*(a*h+1) wraps
		{KindDragonfly, []int{41, 39}},           // 41 * 1600 = 65600
	} {
		if _, err := s.Build(); err == nil {
			t.Errorf("%v built", s)
		}
	}
	for _, s := range []Spec{
		{KindHyperX, []int{32, 32, 32}},
		{KindTorus, []int{256, 256}}, // MaxSwitches exactly
		{KindDragonfly, []int{40, 40}},
	} {
		if top, err := s.Build(); err != nil || top.Switches() > MaxSwitches {
			t.Errorf("%v: %v", s, err)
		}
	}
}
