// Package codeccoverage is the fixture for the codeccoverage analyzer.
// The analyzer's registry (codecTargets) declares Wire with encodeWire/
// decodeWire as its codec, Note exempt and a stale exemption Gone that
// names no field, and WireJSON as reflectively decoded (json-tag check).
package codeccoverage

// Wire has: A covered by both halves, B missing from decode, C missing
// from both, Note exempt, hidden unexported; no field Gone.
type Wire struct { // want `exemption Gone of codec target Wire names no field of the struct`
	A      int64
	B      float64 // want `field Wire.B is not referenced by codec decode function decodeWire`
	C      int64   // want `field Wire.C is not referenced by codec encode function encodeWire` `field Wire.C is not referenced by codec decode function decodeWire`
	Note   string
	hidden int
}

func encodeWire(w *Wire) []byte {
	_ = w.A
	_ = w.B
	_ = w.hidden
	return nil
}

func decodeWire([]byte) *Wire {
	return &Wire{A: 1}
}

// WireJSON decodes via encoding/json: every exported field needs an
// explicit json tag.
type WireJSON struct {
	A int64 `json:"a"`
	B int64 // want `has no json tag`
}

func encodeWireJSON(w *WireJSON) []byte {
	_ = w.A
	_ = w.B
	return nil
}

// Left and Right each have a walk method: the registry keys them as
// Left.walk and Right.walk. Left's covers both fields; Right's misses B.
// Keyed by bare name, the later declaration would answer for both structs:
// either Right's gap goes unseen or every Left field is reported.
type Left struct {
	A int64
	B int64
}

func (l *Left) walk() {
	_ = l.A
	_ = l.B
}

type Right struct {
	A int64
	B int64 // want `field Right.B is not referenced by codec encode function Right.walk` `field Right.B is not referenced by codec decode function Right.walk`
}

func (r Right) walk() {
	_ = r.A
}
