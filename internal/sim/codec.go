package sim

import (
	"fmt"

	"repro/internal/wire"
)

// EngineVersion tags the simulation semantics of this build. Any change
// that can alter a Result for the same RunOptions — allocation policy,
// RNG binding, Table 2 defaults, metric definitions — must bump it. The
// content-addressed result cache and the work-queue handshake both fold it
// into their identity checks, so stale cache entries are never returned and
// mismatched workers are rejected instead of silently producing divergent
// rows.
//
// hyperx-sim/4 replaced the open-loop per-cycle Bernoulli generation with
// the geometric arrival calendar (arrivals.go): identical marginal traffic,
// different RNG consumption, hence the bump.
const EngineVersion = "hyperx-sim/4"

// ActiveEngineVersion returns EngineVersion. It exists only because the
// frozen bench/ module still calls it; new code uses the constant.
//
//hx:allow unusedexport frozen bench/ calls it; deleted with the shims by ROADMAP 1(b)
func ActiveEngineVersion() string { return EngineVersion }

// resultCodecVersion versions the binary layout below, independently of the
// engine semantics.
const resultCodecVersion = 1

// walk names every Result field once, in layout order, for both directions
// of the codec (see package wire for the layout rules). A new field goes
// here and bumps resultCodecVersion.
func (r *Result) walk(c *wire.Coder) {
	c.F64(&r.OfferedLoad)
	c.F64(&r.AcceptedLoad)
	c.F64(&r.AvgLatency)
	c.F64(&r.AvgHops)
	c.F64(&r.JainIndex)
	c.F64(&r.EscapeFraction)
	c.F64(&r.LinkUtilization)
	c.I64(&r.DeliveredPackets)
	c.I64(&r.GeneratedPackets)
	c.I64(&r.StalledGenerations)
	c.I64(&r.LostPackets)
	c.I64(&r.FaultsApplied)
	c.I64(&r.Cycles)
	c.I64(&r.CompletionTime)
	for i := range wire.Len(c, &r.Series, 8+8) {
		c.I64(&r.Series[i].Cycle)
		c.F64(&r.Series[i].Accepted)
	}
}

// AppendBinary appends a stable binary encoding of the result to b and
// returns the extended slice. The layout is fixed little-endian with
// float64 bit patterns, so encoding is byte-deterministic and decoding is
// bit-exact: DecodeResult(r.AppendBinary(nil)) reproduces r exactly. This
// is the on-disk format of the result cache and the wire format of the
// work queue.
func (r *Result) AppendBinary(b []byte) []byte {
	return wire.Encode(b, resultCodecVersion, r.walk)
}

// DecodeResult decodes a result encoded by AppendBinary. It fails on a
// codec version mismatch or a truncated or oversized buffer.
func DecodeResult(b []byte) (*Result, error) {
	r := &Result{}
	if err := wire.Decode(b, resultCodecVersion, r.walk); err != nil {
		return nil, fmt.Errorf("sim: result encoding: %w", err)
	}
	return r, nil
}
