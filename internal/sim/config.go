// Package sim implements the cycle-level network simulator the experiments
// run on: input-queued virtual-cut-through switches with per-VC input
// buffers, output buffers, credit-based flow control, a speedup-2 crossbar
// and the paper's single-request Q+P allocation (Section 3). It plays the
// role CAMINOS plays for the paper.
package sim

import "fmt"

// Config carries the microarchitectural parameters of Table 2 of the paper.
// The zero value is invalid; start from DefaultConfig.
type Config struct {
	// InputBufPkts is the per-VC input buffer capacity in packets (Table 2:
	// 8 packets).
	InputBufPkts int
	// OutputBufPkts is the per-port output buffer capacity in packets
	// (Table 2: 4 packets).
	OutputBufPkts int
	// PacketPhits is the packet length in phits (Table 2: 16); a link moves
	// one phit per cycle.
	PacketPhits int
	// LinkLatency is the link propagation latency in cycles (Table 2: 1).
	LinkLatency int
	// XbarLatency is the crossbar traversal latency in cycles (Table 2: 1).
	XbarLatency int
	// XbarSpeedup is the crossbar's internal speedup (Table 2: 2): packets
	// cross the switch at Speedup phits per cycle, and each input and
	// output port sustains up to Speedup concurrent transfers.
	XbarSpeedup int
	// InjQueuePkts is the per-server injection (source) queue capacity in
	// packets; generation stalls when it is full, which is what the Jain
	// index of generated load observes under congestion.
	InjQueuePkts int
	// PenaltyWeight scales routing penalties (in phits) against queue
	// occupancies (in packets): cost = Q + PenaltyWeight * P / PacketPhits.
	// The paper notes "there are large regions of similar performance, so
	// the specific values have little importance"; 2.0 reproduces its
	// fault-free rankings on this engine (see BenchmarkAblationPenalties).
	PenaltyWeight float64
	// WatchdogCycles aborts the run with ErrDeadlock when no packet is
	// granted, transmitted or delivered for this many cycles while traffic
	// is in flight. 0 disables the watchdog.
	WatchdogCycles int64
	// CheckInvariants enables periodic internal-state audits (credit and
	// buffer accounting, the occupancy masks against the queues, the
	// activity counters and the timing wheel's bookings); a violation
	// panics with a diagnostic. Intended for tests; costs a few percent of
	// runtime.
	CheckInvariants bool
}

// DefaultConfig returns Table 2 of the paper.
func DefaultConfig() Config {
	return Config{
		InputBufPkts:   8,
		OutputBufPkts:  4,
		PacketPhits:    16,
		LinkLatency:    1,
		XbarLatency:    1,
		XbarSpeedup:    2,
		InjQueuePkts:   8,
		PenaltyWeight:  2.0,
		WatchdogCycles: 50000,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.InputBufPkts < 1:
		return fmt.Errorf("sim: InputBufPkts must be >= 1, got %d", c.InputBufPkts)
	case c.OutputBufPkts < 1:
		return fmt.Errorf("sim: OutputBufPkts must be >= 1, got %d", c.OutputBufPkts)
	case c.PacketPhits < 1:
		return fmt.Errorf("sim: PacketPhits must be >= 1, got %d", c.PacketPhits)
	case c.LinkLatency < 0:
		return fmt.Errorf("sim: LinkLatency must be >= 0, got %d", c.LinkLatency)
	case c.XbarLatency < 0:
		return fmt.Errorf("sim: XbarLatency must be >= 0, got %d", c.XbarLatency)
	case c.XbarSpeedup < 1:
		return fmt.Errorf("sim: XbarSpeedup must be >= 1, got %d", c.XbarSpeedup)
	case c.InjQueuePkts < 1:
		return fmt.Errorf("sim: InjQueuePkts must be >= 1, got %d", c.InjQueuePkts)
	case c.PenaltyWeight < 0:
		return fmt.Errorf("sim: PenaltyWeight must be >= 0, got %v", c.PenaltyWeight)
	case c.WatchdogCycles < 0:
		return fmt.Errorf("sim: WatchdogCycles must be >= 0, got %d", c.WatchdogCycles)
	}
	return nil
}

// xferCycles is the crossbar serialization time of one packet.
func (c Config) xferCycles() int64 {
	x := int64((c.PacketPhits + c.XbarSpeedup - 1) / c.XbarSpeedup)
	if x < 1 {
		x = 1
	}
	return x
}
