package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/metrics"
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
func ActiveEngineVersion() string { return EngineVersion }

// resultCodecVersion versions the binary layout below, independently of the
// engine semantics.
const resultCodecVersion = 1

// AppendBinary appends a stable binary encoding of the result to b and
// returns the extended slice. The layout is fixed little-endian with
// float64 bit patterns, so encoding is byte-deterministic and decoding is
// bit-exact: DecodeResult(r.AppendBinary(nil)) reproduces r exactly. This
// is the on-disk format of the result cache and the wire format of the
// work queue.
func (r *Result) AppendBinary(b []byte) []byte {
	b = append(b, resultCodecVersion)
	u64 := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		b = append(b, buf[:]...)
	}
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	f64(r.OfferedLoad)
	f64(r.AcceptedLoad)
	f64(r.AvgLatency)
	f64(r.AvgHops)
	f64(r.JainIndex)
	f64(r.EscapeFraction)
	f64(r.LinkUtilization)
	i64(r.DeliveredPackets)
	i64(r.GeneratedPackets)
	i64(r.StalledGenerations)
	i64(r.LostPackets)
	i64(r.FaultsApplied)
	i64(r.Cycles)
	i64(r.CompletionTime)
	i64(int64(len(r.Series)))
	for _, p := range r.Series {
		i64(p.Cycle)
		f64(p.Accepted)
	}
	return b
}

// DecodeResult decodes a result encoded by AppendBinary. It fails on a
// codec version mismatch or a truncated or oversized buffer.
func DecodeResult(b []byte) (*Result, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("sim: empty result encoding")
	}
	if b[0] != resultCodecVersion {
		return nil, fmt.Errorf("sim: result codec version %d, want %d", b[0], resultCodecVersion)
	}
	b = b[1:]
	var decodeErr error
	u64 := func() uint64 {
		if decodeErr != nil {
			return 0
		}
		if len(b) < 8 {
			decodeErr = fmt.Errorf("sim: truncated result encoding")
			return 0
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	i64 := func() int64 { return int64(u64()) }
	f64 := func() float64 { return math.Float64frombits(u64()) }
	r := &Result{}
	r.OfferedLoad = f64()
	r.AcceptedLoad = f64()
	r.AvgLatency = f64()
	r.AvgHops = f64()
	r.JainIndex = f64()
	r.EscapeFraction = f64()
	r.LinkUtilization = f64()
	r.DeliveredPackets = i64()
	r.GeneratedPackets = i64()
	r.StalledGenerations = i64()
	r.LostPackets = i64()
	r.FaultsApplied = i64()
	r.Cycles = i64()
	r.CompletionTime = i64()
	n := i64()
	if decodeErr != nil {
		return nil, decodeErr
	}
	if n < 0 || n > int64(len(b)/16) {
		return nil, fmt.Errorf("sim: result encoding claims %d series points, %d bytes left", n, len(b))
	}
	if n > 0 {
		r.Series = make([]metrics.SeriesPoint, n)
		for i := range r.Series {
			r.Series[i].Cycle = i64()
			r.Series[i].Accepted = f64()
		}
	}
	if decodeErr != nil {
		return nil, decodeErr
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("sim: %d trailing bytes after result encoding", len(b))
	}
	return r, nil
}
