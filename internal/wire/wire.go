// Package wire is the one byte layer under the repo's binary formats: the
// sim.Result codec (.res cache entries, queue result frames) and the
// hyperx-ckpt snapshot codec. The layout rules, stated once:
//
//   - little-endian, every integer at the fixed width of its Go type
//     (int8 one byte … int64/uint64 eight), float64 as its bit pattern,
//     bool as one byte;
//   - a slice is an int64 element count then the elements, a string a
//     uint32 byte count then the bytes;
//   - a layout starts with one version byte;
//   - persisted buffers end in a SHA-256 trailer over everything before it
//     (Seal, Open).
//
// A struct names its fields once, in layout order, in a walk(*Coder) that
// Encode and Decode both run: every Coder call takes a pointer and either
// writes *v out or overwrites *v from the input. The codeccoverage analyzer
// checks that walk against the struct.
package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Coder is a cursor over one buffer, encoding or decoding. Its scalar
// methods are small enough to inline into a walk — a field costs a bounds
// check and a load or store, not a call — so they have no failure branch:
// a cursor past the end of its buffer keeps counting and works on a
// scratch word. A decoder then reads zeros and Decode reports the
// failure; an encoder without a buffer is measuring (see Encode).
type Coder struct {
	buf     []byte // decoding: the input; encoding: the room to fill
	off     int    // cursor; past len(buf) once the buffer has run out
	dec     bool
	scratch [8]byte // stands in for buf past its end
}

// Encode appends the version byte and the layout that walk describes to b
// and returns the extended slice. It walks twice: first with no buffer,
// which only moves the cursor and so measures the encoding, then into room
// of that size — one allocation and no growth copies, with capacity left
// for Seal to add its trailer in place.
func Encode(b []byte, version byte, walk func(*Coder)) []byte {
	c := &Coder{off: len(b) + 1}
	walk(c)
	c.buf = slices.Grow(b, c.off-len(b)+sha256.Size)[:c.off]
	c.buf[len(b)], c.off = version, len(b)+1
	walk(c)
	if c.off != len(c.buf) {
		panic("wire: the value changed size while it was being encoded")
	}
	return c.buf
}

// Decode reads b through walk. It fails on another version byte (a layout
// change bumps the byte, so an old reader sees "no usable entry" instead of
// misreading the fields), on input that ends before the layout does —
// cut short, or holding a count it has no bytes for — and on input left
// over: a layout accounts for every byte. No input makes it panic, or
// allocate more than a small multiple of len(b). Decoded strings and
// slices are copies; nothing aliases b.
func Decode(b []byte, version byte, walk func(*Coder)) error {
	if len(b) > 0 && b[0] != version {
		return fmt.Errorf("codec version %d, want %d", b[0], version)
	}
	c := &Coder{buf: b, off: 1, dec: true}
	walk(c)
	switch {
	case c.off > len(b):
		return errors.New("truncated encoding, or a count past its end")
	case c.off < len(b):
		return fmt.Errorf("%d trailing bytes", len(b)-c.off)
	}
	return nil
}

// next returns the following n <= 8 bytes of the buffer — input to read,
// or room to fill — and moves the cursor past them; past the end of the
// buffer it returns scratch bytes instead.
func (c *Coder) next(n int) []byte {
	start := c.off
	c.off += n
	if c.off > len(c.buf) {
		return c.scratch[:n]
	}
	return c.buf[start:c.off]
}

// run is next for a run of any length: past the end of the buffer it
// returns nil, and the caller skips the run.
func (c *Coder) run(n int) []byte {
	start := c.off
	c.off += n
	if c.off > len(c.buf) {
		return nil
	}
	return c.buf[start:c.off]
}

// The scalar methods, one per type the formats use. The pointer's type
// fixes the width, so narrowing a field's Go type is a format change.

func (c *Coder) I8(v *int8) {
	if b := c.next(1); c.dec {
		*v = int8(b[0])
	} else {
		b[0] = byte(*v)
	}
}

func (c *Coder) I16(v *int16) {
	if b := c.next(2); c.dec {
		*v = int16(binary.LittleEndian.Uint16(b))
	} else {
		binary.LittleEndian.PutUint16(b, uint16(*v))
	}
}

func (c *Coder) I32(v *int32) {
	if b := c.next(4); c.dec {
		*v = int32(binary.LittleEndian.Uint32(b))
	} else {
		binary.LittleEndian.PutUint32(b, uint32(*v))
	}
}

func (c *Coder) I64(v *int64) {
	if b := c.next(8); c.dec {
		*v = int64(binary.LittleEndian.Uint64(b))
	} else {
		binary.LittleEndian.PutUint64(b, uint64(*v))
	}
}

func (c *Coder) U64(v *uint64) {
	if b := c.next(8); c.dec {
		*v = binary.LittleEndian.Uint64(b)
	} else {
		binary.LittleEndian.PutUint64(b, *v)
	}
}

// F64 codes the IEEE-754 bit pattern, so decoding is bit-exact.
func (c *Coder) F64(v *float64) {
	if b := c.next(8); c.dec {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(b))
	} else {
		binary.LittleEndian.PutUint64(b, math.Float64bits(*v))
	}
}

// Bool codes one byte: written 0 or 1, any non-zero reads true.
func (c *Coder) Bool(v *bool) {
	if b := c.next(1); c.dec {
		*v = b[0] != 0
	} else if *v {
		b[0] = 1
	} else {
		b[0] = 0
	}
}

// String codes a uint32 byte count and the bytes.
func (c *Coder) String(v *string) {
	b := c.next(4)
	if !c.dec {
		binary.LittleEndian.PutUint32(b, uint32(len(*v)))
		copy(c.run(len(*v)), *v)
		return
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 0 || n > len(c.buf)-c.off { // n < 0: a 32-bit int
		c.overrun()
		n = 0
	}
	*v = string(c.run(n))
}

// overrun ends the input: it held a count it has no bytes for, so it was
// cut short or is corrupt. Every later read yields zeros and Decode fails.
func (c *Coder) overrun() { c.off = len(c.buf) + 1 }

// Len codes a slice's length, an int64 prefix, for a caller that then
// walks the elements: it returns the slice to range over, and the loop
// body codes each element's fields in layout order. elemSize is the
// encoded size of one element: a decoder refuses a count the remaining
// input cannot hold at that size before it makes the slice, so a corrupt
// prefix costs an error, never a huge allocation. An empty slice decodes
// as nil. (The caller loops, rather than passing a per-element function,
// so that the element's scalar calls inline into the caller's walk.)
func Len[T any](c *Coder, v *[]T, elemSize int) []T {
	n := int64(len(*v))
	c.I64(&n)
	if c.dec {
		*v = nil
		if n < 0 || n > int64((len(c.buf)-c.off)/elemSize) {
			c.overrun()
		} else if n > 0 {
			*v = make([]T, n)
		}
	}
	return *v
}

// Ints codes a slice of integers, each at the fixed width of its type. An
// empty slice decodes as nil.
func Ints[T int8 | int16 | int32 | int64 | uint64](c *Coder, v *[]T) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	vs := Len(c, v, size)
	raw := c.run(len(vs) * size)
	if raw == nil {
		return // an encoder that is measuring (a decoder past its input has no vs)
	}
	for i := range vs {
		if b := raw[i*size:][:size]; c.dec {
			vs[i] = T(le(b))
		} else {
			putLE(b, uint64(vs[i]))
		}
	}
}

// le reads a little-endian integer of len(b) bytes.
func le(b []byte) uint64 {
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// putLE fills b with the low len(b) bytes of v, little-endian.
func putLE(b []byte, v uint64) {
	switch len(b) {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// Seal appends the SHA-256 of body to it: the trailer that lets a reader
// tell a torn or bit-flipped file from a valid one before decoding it.
func Seal(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// Open splits a sealed buffer into its body and verifies the trailer.
// ok is false when the buffer is too short to hold a body byte and a
// trailer, or when the checksum does not match.
func Open(sealed []byte) (body []byte, ok bool) {
	n := len(sealed) - sha256.Size
	if n < 1 {
		return nil, false
	}
	sum := sha256.Sum256(sealed[:n])
	return sealed[:n], bytes.Equal(sum[:], sealed[n:])
}
