package sim

import (
	"fmt"
	"math"
)

// ringHdr is one FIFO's position in its ringSet: the slot of the oldest
// entry and the entry count.
type ringHdr struct {
	head, n uint16
}

// maxRingCap is the largest per-ring capacity a ringHdr can count.
const maxRingCap = math.MaxUint16

// ringSet is a family of equal-capacity FIFOs of packet ids — the input VC
// queues, the output buffers or the injection queues of the whole network —
// stored as one dense header array and one shared slab: entry j of ring i
// lives at buf[i*cap+j]. Every method takes the ring index.
//
// The header is 4 bytes so that neighbouring rings share cache lines: the V
// input VCs of a port are the rings the allocate scan probes together, and
// with V = 6 their headers are 24 contiguous bytes, where a slice-backed
// ring per VC spread them over four lines and sent every access through a
// second pointer to reach the slab. Both fields are uint16 for all three
// families, burst-mode injection queues included (the paper's bursts are
// 500 packets): newEngine refuses a capacity above maxRingCap before it
// allocates anything (ringCapError), which keeps one type and one header
// layout instead of a wider variant for the injection set alone.
//
// tag is a parallel int8 slab holding the VC of each entry. Only the output
// buffers carry one; it stays a separate slab rather than a packed word so
// neither field constrains the other's range (an earlier pkt<<3|vc encoding
// silently corrupted packet ids once a mechanism used more than 8 VCs).
type ringSet struct {
	hdr []ringHdr
	buf []int32
	tag []int8
	cap int
}

// ringCapError reports a queue capacity the ring header cannot count.
func ringCapError(what string, capacity int) error {
	if capacity > maxRingCap {
		return fmt.Errorf("sim: %s = %d exceeds the %d packets a queue header can count", what, capacity, maxRingCap)
	}
	return nil
}

// newRingSet allocates n empty rings of the given capacity (validated by
// the caller through ringCapError): two allocations, three when tagged,
// whatever n is.
func newRingSet(n, capacity int, tagged bool) ringSet {
	r := ringSet{
		hdr: make([]ringHdr, n),
		buf: make([]int32, n*capacity),
		cap: capacity,
	}
	if tagged {
		r.tag = make([]int8, n*capacity)
	}
	return r
}

func (r *ringSet) len(i int32) int { return int(r.hdr[i].n) }

func (r *ringSet) full(i int32) bool { return int(r.hdr[i].n) == r.cap }

// allEmpty reports whether the n rings from index lo on are all empty.
func (r *ringSet) allEmpty(lo int32, n int) bool {
	for _, h := range r.hdr[lo : int(lo)+n] {
		if h.n != 0 {
			return false
		}
	}
	return true
}

// reset empties ring i.
func (r *ringSet) reset(i int32) { r.hdr[i] = ringHdr{} }

// slot is the slab index of the j-th entry of ring i counted from its head.
// head < cap and j <= cap, so one compare-and-subtract wraps it.
func (r *ringSet) slot(i int32, j int) int {
	k := int(r.hdr[i].head) + j
	if k >= r.cap {
		k -= r.cap
	}
	return int(i)*r.cap + k
}

// pushSlot claims the tail slot of ring i; it panics on overflow, which
// would indicate a flow-control accounting bug rather than a recoverable
// condition.
func (r *ringSet) pushSlot(i int32) int {
	h := &r.hdr[i]
	if int(h.n) == r.cap {
		panic("sim: ring overflow (flow-control accounting bug)")
	}
	k := r.slot(i, int(h.n))
	h.n++
	return k
}

// popSlot releases the head slot of ring i, which must be non-empty.
func (r *ringSet) popSlot(i int32) int {
	h := &r.hdr[i]
	k := int(i)*r.cap + int(h.head)
	h.head++
	if int(h.head) == r.cap {
		h.head = 0
	}
	h.n--
	return k
}

// push appends v to ring i.
func (r *ringSet) push(i, v int32) { r.buf[r.pushSlot(i)] = v }

// peek returns the head of ring i without removing it; the ring must be
// non-empty.
func (r *ringSet) peek(i int32) int32 { return r.buf[int(i)*r.cap+int(r.hdr[i].head)] }

// pop removes and returns the head of ring i; the ring must be non-empty.
func (r *ringSet) pop(i int32) int32 { return r.buf[r.popSlot(i)] }

// at returns the j-th entry of ring i in pop order, 0 <= j < len(i).
func (r *ringSet) at(i int32, j int) int32 { return r.buf[r.slot(i, j)] }

// pushVC and popVC are push and pop of a tagged set: the entry is a
// (packet, VC) pair.
func (r *ringSet) pushVC(i, pkt int32, vc int8) {
	k := r.pushSlot(i)
	r.buf[k], r.tag[k] = pkt, vc
}

func (r *ringSet) popVC(i int32) (int32, int8) {
	k := r.popSlot(i)
	return r.buf[k], r.tag[k]
}

// bytes is the heap footprint of the set: headers plus slabs.
func (r *ringSet) bytes() int64 {
	return sliceBytes(r.hdr) + sliceBytes(r.buf) + sliceBytes(r.tag)
}
