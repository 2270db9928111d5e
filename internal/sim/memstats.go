package sim

import (
	"fmt"
	"time"
	"unsafe"
)

// MemStats is the engine's memory accounting: the arena footprint measured
// at construction (MeasureEngineMemory). It is surfaced by the CLIs'
// -mem-stats flag, read by bench/ and budgeted by scale_test.go, and is
// pure diagnostics — requesting it never changes results.
type MemStats struct {
	// Switches is the network size the engine was built for.
	Switches int
	// ArenaBytes is the engine-owned array and slab footprint at
	// construction: everything sized by the network (rings and their
	// slabs, calendars, credit ledgers, counters, the staging arenas, the
	// head cache and the activity tracking words). The packet pool and the
	// per-server arrival calendar grow with offered traffic and are
	// excluded.
	ArenaBytes int64
	// StagingCapBytes is the slab capacity reserved for the per-cycle
	// staging arenas (granted/outbox/freed); included in
	// ArenaBytes.
	StagingCapBytes int64
	// BytesPerSwitch is ArenaBytes averaged over the switch array — the
	// scaling figure the CI memory-regression guard watches.
	BytesPerSwitch float64
	// ConstructNanos is the wall-clock time engine construction took.
	ConstructNanos int64
}

func (m *MemStats) String() string {
	return fmt.Sprintf(
		"engine memory: %d switches, %.1f MiB arenas (%.0f bytes/switch), %.1f MiB staging cap, constructed in %s",
		m.Switches, float64(m.ArenaBytes)/(1<<20), m.BytesPerSwitch,
		float64(m.StagingCapBytes)/(1<<20),
		time.Duration(m.ConstructNanos).Round(time.Microsecond))
}

// sliceBytes is the heap footprint of a flat slice: element storage only
// (the header lives in the engine struct).
func sliceBytes[T any](s []T) int64 {
	var z T
	return int64(cap(s)) * int64(unsafe.Sizeof(z))
}

// arenaBytes is the footprint of a slice-of-slices arena: the outer header
// array plus every region's capacity. For the slab-carved arenas the
// regions tile one slab, so the sum equals the slab size.
func arenaBytes[T any](s [][]T) int64 {
	var z T
	b := int64(len(s)) * int64(unsafe.Sizeof([]T(nil)))
	for i := range s {
		b += int64(cap(s[i])) * int64(unsafe.Sizeof(z))
	}
	return b
}

// memStats accounts the arrays of an engine newEngine just built, before
// any traffic has grown them. Every network-sized allocation is counted
// once; ConstructNanos is the caller's to fill.
func (e *engine) memStats() MemStats {
	var b int64
	b += sliceBytes(e.portDead)
	b += sliceBytes(e.up)
	b += sliceBytes(e.pq)
	b += e.inQ.bytes()
	b += sliceBytes(e.inBusyUntil)
	b += sliceBytes(e.credits)
	b += sliceBytes(e.inInflight)
	b += sliceBytes(e.inMask)
	b += sliceBytes(e.outMask)
	b += sliceBytes(e.injMask)
	b += sliceBytes(e.hcArena) + sliceBytes(e.hcOff) + sliceBytes(e.hcLen) + sliceBytes(e.hcTop)
	b += sliceBytes(e.penCost)
	b += e.outQ.bytes()
	b += sliceBytes(e.outVCCount)
	b += sliceBytes(e.outBusy)
	b += e.injQ.bytes()
	b += sliceBytes(e.injBusy)
	b += sliceBytes(e.genPhits)
	b += arenaBytes(e.events) + sliceBytes(e.evMask)
	b += sliceBytes(e.tie)
	staging := arenaBytes(e.granted) + arenaBytes(e.outbox) + arenaBytes(e.freed)
	b += staging
	b += sliceBytes(e.swDelivered) + sliceBytes(e.swLost) + sliceBytes(e.swProgressed)
	b += sliceBytes(e.win)
	b += int64(len(e.ws)) * int64(unsafe.Sizeof(workerScratch{}))
	a := e.act
	b += sliceBytes(a.retry) + sliceBytes(a.nextWork) + sliceBytes(a.booked)
	return MemStats{
		Switches:        e.S,
		ArenaBytes:      b,
		StagingCapBytes: staging,
		BytesPerSwitch:  float64(b) / float64(e.S),
	}
}

// MeasureEngineMemory builds the engine for o and returns its arena
// accounting without running anything: the construction-only path behind
// the CLIs' -mem-stats flag. Validation is Run's construction half
// (constructible); run-shape fields (Load, MeasureCycles, ...) are ignored.
func MeasureEngineMemory(o RunOptions) (*MemStats, error) {
	if err := o.constructible(); err != nil {
		return nil, err
	}
	start := time.Now()
	e, err := newEngine(o)
	if err != nil {
		return nil, err
	}
	m := e.memStats()
	m.ConstructNanos = time.Since(start).Nanoseconds()
	return &m, nil
}
