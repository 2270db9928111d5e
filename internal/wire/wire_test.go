package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// mixed uses every Coder call once or more: the fixed walk of the tests
// and of FuzzCoder.
type mixed struct {
	A    int8
	B    int16
	C    int32
	D    int64
	E    uint64
	F    float64
	G    bool
	S    string
	I8s  []int8
	I16s []int16
	I32s []int32
	I64s []int64
	U64s []uint64
	Bs   []bool
	Recs []rec
}

type rec struct {
	At   int64
	Port int32
	Live bool
}

func (m *mixed) walk(c *Coder) {
	c.I8(&m.A)
	c.I16(&m.B)
	c.I32(&m.C)
	c.I64(&m.D)
	c.U64(&m.E)
	c.F64(&m.F)
	c.Bool(&m.G)
	c.String(&m.S)
	Ints(c, &m.I8s)
	Ints(c, &m.I16s)
	Ints(c, &m.I32s)
	Ints(c, &m.I64s)
	Ints(c, &m.U64s)
	for i := range Len(c, &m.Bs, 1) {
		c.Bool(&m.Bs[i])
	}
	for i := range Len(c, &m.Recs, 8+4+1) {
		r := &m.Recs[i]
		c.I64(&r.At)
		c.I32(&r.Port)
		c.Bool(&r.Live)
	}
}

const mixedVersion = 7

func sampleMixed() *mixed {
	return &mixed{
		A: -2, B: -300, C: -70000, D: -5_000_000_000, E: math.MaxUint64 - 1,
		F: math.Nextafter(1.0/3.0, 1), G: true, S: "hyperx-ckpt/1",
		I8s: []int8{-1, 2}, I16s: []int16{-3, 4}, I32s: []int32{-5, 6},
		I64s: []int64{-7, 8}, U64s: []uint64{9, math.MaxUint64}, Bs: []bool{true, false, true},
		Recs: []rec{{At: 11, Port: -12, Live: true}, {At: -13, Port: 14}},
	}
}

func TestCoderRoundTrip(t *testing.T) {
	m := sampleMixed()
	enc := Encode(nil, mixedVersion, m.walk)
	var got mixed
	if err := Decode(enc, mixedVersion, got.walk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, m) {
		t.Fatalf("round trip:\n%+v\nvs\n%+v", &got, m)
	}
	// The zero value round-trips to nil slices, and takes the fixed part only.
	var zero, back mixed
	enc = Encode(nil, mixedVersion, zero.walk)
	if want := 1 + 1 + 2 + 4 + 8 + 8 + 8 + 1 + 4 + 7*8; len(enc) != want {
		t.Errorf("zero value encodes to %d bytes, want %d", len(enc), want)
	}
	if err := Decode(enc, mixedVersion, back.walk); err != nil || !reflect.DeepEqual(back, zero) {
		t.Errorf("zero round trip: %+v, %v", back, err)
	}
}

// TestLayout pins the rules the README states: little-endian, the fixed
// width of the Go type, an int64 slice prefix, a uint32 string prefix, one
// leading version byte.
func TestLayout(t *testing.T) {
	v := struct {
		a int16
		s string
		l []int32
		b bool
	}{a: 0x0102, s: "ab", l: []int32{-2}, b: true}
	got := Encode(nil, 9, func(c *Coder) {
		c.I16(&v.a)
		c.String(&v.s)
		Ints(c, &v.l)
		c.Bool(&v.b)
	})
	want := []byte{
		9,    // version
		2, 1, // int16, low byte first
		2, 0, 0, 0, 'a', 'b', // uint32 count, bytes
		1, 0, 0, 0, 0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, // int64 count, one int32
		1, // bool
	}
	if !bytes.Equal(got, want) {
		t.Errorf("layout:\n% x\nwant\n% x", got, want)
	}
}

// TestEncodeAppends: Encode extends its argument like append does, and
// writes every byte it claims — a reused buffer's stale spare capacity
// must not leak into a false bool or a short run.
func TestEncodeAppends(t *testing.T) {
	m := sampleMixed()
	m.G = false
	fresh := Encode(nil, mixedVersion, m.walk)
	stale := bytes.Repeat([]byte{0xff}, 2*len(fresh)+3)
	got := Encode(stale[:3], mixedVersion, m.walk)
	if !bytes.Equal(got[:3], []byte{0xff, 0xff, 0xff}) || !bytes.Equal(got[3:], fresh) {
		t.Error("Encode into a reused buffer differs from Encode into a fresh one")
	}
}

// TestDecodeRefusals: every way a buffer can be wrong is an error, never a
// panic — each proper prefix (truncation at every byte), trailing bytes, a
// wrong version byte and an empty buffer.
func TestDecodeRefusals(t *testing.T) {
	enc := Encode(nil, mixedVersion, sampleMixed().walk)
	for n := 0; n < len(enc); n++ {
		var m mixed
		if err := Decode(enc[:n], mixedVersion, m.walk); err == nil {
			t.Fatalf("a %d-byte prefix of %d bytes decoded", n, len(enc))
		}
	}
	var m mixed
	if err := Decode(append(enc[:len(enc):len(enc)], 0), mixedVersion, m.walk); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: %v", err)
	}
	if err := Decode(enc, mixedVersion+1, m.walk); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version: %v", err)
	}
	if err := Decode(nil, mixedVersion, m.walk); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("empty buffer: %v", err)
	}
}

// TestOversizedPrefixFailsBeforeAllocation: a length prefix the remaining
// bytes cannot hold is refused before the slice is made. One prefix of
// 1<<40 on a 16-byte buffer: were it honoured, make would need a terabyte
// and take the test binary down with it.
func TestOversizedPrefixFailsBeforeAllocation(t *testing.T) {
	buf := make([]byte, 16)
	buf[5] = 1 // little-endian 1<<40 in bytes 0..7
	for name, walk := range map[string]func(*Coder) any{
		"Ints": func(c *Coder) any { var v []int8; Ints(c, &v); return v },
		"Len":  func(c *Coder) any { var v []rec; return Len(c, &v, 13) },
	} {
		c := &Coder{buf: buf, dec: true}
		if v := walk(c); reflect.ValueOf(v).Len() != 0 {
			t.Errorf("%s: a slice was made for the refused prefix", name)
		}
		if c.off <= len(buf) {
			t.Errorf("%s: prefix 1<<40 with 8 bytes left did not end the input", name)
		}
	}
	var m mixed
	if err := Decode(append([]byte{mixedVersion}, buf...), mixedVersion, m.walk); err == nil {
		t.Error("Decode accepted the input")
	}
	// A negative count, and a string prefix past the input, likewise.
	for i := range buf[:8] {
		buf[i] = 0xff
	}
	var v []int64
	c := &Coder{buf: buf, dec: true}
	if Ints(c, &v); c.off <= len(buf) || v != nil {
		t.Errorf("negative count: %v, cursor %d", v, c.off)
	}
	var s string
	c = &Coder{buf: buf, dec: true}
	if c.String(&s); c.off <= len(buf) || s != "" {
		t.Errorf("string prefix past the input: %q, cursor %d", s, c.off)
	}
}

func TestSealOpen(t *testing.T) {
	body := []byte("the body")
	sealed := Seal(append([]byte(nil), body...))
	if len(sealed) != len(body)+32 {
		t.Fatalf("sealed %d bytes", len(sealed))
	}
	if got, ok := Open(sealed); !ok || !bytes.Equal(got, body) {
		t.Errorf("Open(Seal(body)) = %q, %v", got, ok)
	}
	for i := range sealed {
		flipped := append([]byte(nil), sealed...)
		flipped[i] ^= 0x10
		if _, ok := Open(flipped); ok {
			t.Fatalf("a flipped bit in byte %d went unnoticed", i)
		}
	}
	// Too short for a trailer and a body byte: refused, not sliced.
	for n := 0; n <= 32; n++ {
		if _, ok := Open(Seal(nil)[:n]); ok {
			t.Errorf("%d-byte buffer opened", n)
		}
	}
}

// FuzzCoder drives arbitrary bytes through the fixed mixed walk. Contract:
// an error or a value, never a panic; a value that decoded re-encodes to
// bytes that decode to the same value (compared through the bytes too: a
// decoded NaN is not DeepEqual to itself).
func FuzzCoder(f *testing.F) {
	f.Add(Encode(nil, mixedVersion, sampleMixed().walk))
	f.Add(Encode(nil, mixedVersion, new(mixed).walk))
	f.Add([]byte{mixedVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m mixed
		if err := Decode(data, mixedVersion, m.walk); err != nil {
			return
		}
		enc := Encode(nil, mixedVersion, m.walk)
		var again mixed
		if err := Decode(enc, mixedVersion, again.walk); err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, m) && !bytes.Equal(Encode(nil, mixedVersion, again.walk), enc) {
			t.Fatalf("value changed across a re-encode:\n%+v\nvs\n%+v", m, again)
		}
	})
}
