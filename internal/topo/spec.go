package topo

import (
	"fmt"
	"strconv"
)

// Spec is the pure-data description of a switched topology: a family name
// plus its integer parameters. It is the serializable counterpart of the
// Switched implementations, so experiment jobs can be hashed for result
// caching and shipped to worker processes. Build and SpecOf round-trip:
// Build(SpecOf(t)) constructs a topology identical to t (same switch ids,
// same port numbering).
type Spec struct {
	// Kind names the family: "hyperx", "torus" or "dragonfly".
	Kind string `json:"kind"`
	// Dims holds the family parameters: the sides k_1..k_n for hyperx and
	// torus, or [a, h] (switches per group, global ports per switch) for
	// dragonfly.
	Dims []int `json:"dims"`
}

// Topology family names accepted in Spec.Kind.
const (
	KindHyperX    = "hyperx"
	KindTorus     = "torus"
	KindDragonfly = "dragonfly"
)

// SpecOf describes a provided topology as a Spec. It fails on topologies
// it does not know how to rebuild.
func SpecOf(t Switched) (Spec, error) {
	switch v := t.(type) {
	case *HyperX:
		return Spec{Kind: KindHyperX, Dims: append([]int(nil), v.dims...)}, nil
	case *Torus:
		return Spec{Kind: KindTorus, Dims: append([]int(nil), v.dims...)}, nil
	case *Dragonfly:
		return Spec{Kind: KindDragonfly, Dims: []int{v.a, v.h}}, nil
	}
	return Spec{}, fmt.Errorf("topo: no spec encoding for %T", t)
}

// Build constructs the topology the spec describes.
func (s Spec) Build() (Switched, error) {
	switch s.Kind {
	case KindHyperX:
		return NewHyperX(s.Dims...)
	case KindTorus:
		return NewTorus(s.Dims...)
	case KindDragonfly:
		if len(s.Dims) != 2 {
			return nil, fmt.Errorf("topo: dragonfly spec needs [a, h], got %v", s.Dims)
		}
		return NewDragonfly(s.Dims[0], s.Dims[1])
	}
	return nil, fmt.Errorf("topo: unknown topology kind %q", s.Kind)
}

// Validate checks the spec without building the topology.
func (s Spec) Validate() error {
	_, err := s.Build()
	return err
}

// String renders the spec canonically, e.g. "hyperx 8x8x8" — stable across
// processes, usable as a hash component.
func (s Spec) String() string { return string(s.AppendText(nil)) }

// AppendText appends String's rendering to b without an intermediate
// string: the job-spec canonical encoding writes it in place.
func (s Spec) AppendText(b []byte) []byte {
	b = append(append(b, s.Kind...), ' ')
	for i, d := range s.Dims {
		if i > 0 {
			b = append(b, 'x')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return b
}
