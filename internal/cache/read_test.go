package cache

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wire"
)

// seriesResult is a result whose entry grows by 16 bytes per Series point.
func seriesResult(points int) *sim.Result {
	res := &sim.Result{AcceptedLoad: 0.5, AvgLatency: 12.5, DeliveredPackets: int64(points)}
	for i := range points {
		res.Series = append(res.Series, metrics.SeriesPoint{Cycle: int64(100 * (i + 1)), Accepted: float64(i) / 7})
	}
	return res
}

// TestStoreRefusesUnsafeKeys: a key is at least three bytes of [0-9a-z], so
// no key can name a path outside the store. Every entry point refuses the
// others, touches nothing on disk, and counts no hit or miss — even where a
// sealed entry waits at the path a joined "../../x" would have reached.
func TestStoreRefusesUnsafeKeys(t *testing.T) {
	root := t.TempDir()
	s, err := Open(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	planted := filepath.Join(root, "x.res") // filepath.Join(s.engine, "..", "/../x.res")
	if err := os.WriteFile(planted, wire.Seal(seriesResult(1).AppendBinary(nil)), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := []byte("engine-state")
	for _, key := range []string{"../../x", "../..", "ab/cd", "ab\\cd", "ABCDEF", "abcDEF", "ab\x00cd", "abc.d", "", "a", "ab"} {
		if _, ok, err := s.Get(key); ok || err == nil {
			t.Errorf("Get(%q) = ok %v, err %v; want a refusal", key, ok, err)
		}
		if err := s.Put(key, seriesResult(1)); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
		if _, ok := s.GetCheckpoint(key); ok {
			t.Errorf("GetCheckpoint(%q) found a checkpoint", key)
		}
		if err := s.PutCheckpoint(key, snap); err == nil {
			t.Errorf("PutCheckpoint(%q) accepted", key)
		}
		if err := s.RemoveCheckpoint(key); err == nil {
			t.Errorf("RemoveCheckpoint(%q) accepted", key)
		}
	}
	if hits, misses := s.Stats(); hits != 0 || misses != 0 {
		t.Errorf("refused keys counted %d hits, %d misses", hits, misses)
	}
	var files []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, p)
		}
		return err
	})
	if err != nil || !reflect.DeepEqual(files, []string{planted}) {
		t.Errorf("refused keys left files %v (err %v), want only %s", files, err, planted)
	}
	// Every key a spec hash or a test can produce is still a key.
	for _, key := range []string{testKey(0), testKey(15), strings.Repeat("0123456789abcdef", 4), "abc", strings.Repeat("z", 64)} {
		if err := s.Put(key, seriesResult(1)); err != nil {
			t.Errorf("Put(%q): %v", key, err)
		}
		if _, ok, err := s.Get(key); !ok || err != nil {
			t.Errorf("Get(%q) = ok %v, err %v", key, ok, err)
		}
	}
}

// TestStoreGetDirectoryIsHealedMiss: a directory in an entry's place opens
// but does not read; that is damage — a miss counted as healed — not an
// error and not a hit.
func TestStoreGetDirectoryIsHealedMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(5)
	p, err := s.entryPath(key, ".res")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(p, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("directory entry: ok %v, err %v; want a plain miss", ok, err)
	}
	if hits, misses := s.Stats(); hits != 0 || misses != 1 || s.Healed() != 1 {
		t.Errorf("directory entry: %d hits, %d misses, %d healed, want 0/1/1", hits, misses, s.Healed())
	}
}

// TestStoreGetEntrySizes: entries on both sides of the read buffer's size —
// the largest that fits, those that fill it, and one with a long Series far
// past it, which takes the whole-file fallback — all read back as hits.
func TestStoreGetEntrySizes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1000}
	for points := 220; points < 270; points++ {
		counts = append(counts, points)
	}
	var below, above bool
	for _, points := range counts {
		res := seriesResult(points)
		size := len(wire.Seal(res.AppendBinary(nil)))
		below = below || size < entryReadBytes
		above = above || size > entryReadBytes
		key := testKey(byte(points))
		if err := s.Put(key, res); err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.Get(key)
		if err != nil || !ok || !reflect.DeepEqual(got, res) {
			t.Fatalf("%d-byte entry (%d points): ok %v, err %v", size, points, ok, err)
		}
	}
	if !below || !above {
		t.Fatalf("the sizes do not straddle the %d-byte buffer (below %v, above %v)", entryReadBytes, below, above)
	}
}

// TestStoreGetResultsShareNoMemory: a returned Result owns its memory, so a
// later Get — which reads into the same kind of buffer — cannot change it.
func TestStoreGetResultsShareNoMemory(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := seriesResult(8), seriesResult(9)
	b.AcceptedLoad, b.Series[0].Accepted = 0.75, 99
	if err := s.Put(testKey(1), a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(2), b); err != nil {
		t.Fatal(err)
	}
	first, ok, err := s.Get(testKey(1))
	if err != nil || !ok {
		t.Fatalf("first Get: ok %v, err %v", ok, err)
	}
	if _, ok, err := s.Get(testKey(2)); err != nil || !ok {
		t.Fatalf("second Get: ok %v, err %v", ok, err)
	}
	if !reflect.DeepEqual(first, a) {
		t.Fatalf("the second Get changed the first result:\n got %+v\nwant %+v", first, a)
	}
}

// FuzzStoreGet: any bytes found as an entry are a hit exactly when they are
// a sealed, decodable result — and then the result those bytes encode —
// and otherwise a miss, healed exactly when the trailer does not match;
// never an error, never a panic.
func FuzzStoreGet(f *testing.F) {
	sealed := wire.Seal(seriesResult(2).AppendBinary(nil))
	f.Add(sealed)
	f.Add(sealed[:len(sealed)-1])
	f.Add(wire.Seal(seriesResult(300).AppendBinary(nil))) // past the read buffer
	f.Add(wire.Seal([]byte{0xff, 1, 2, 3}))               // intact, unknown codec
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, entryReadBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		key := testKey(3)
		p, err := s.entryPath(key, ".res")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.Get(key)
		if err != nil {
			t.Fatalf("Get errored: %v", err)
		}
		body, intact := wire.Open(data)
		var want *sim.Result
		if intact {
			want, _ = sim.DecodeResult(body)
		}
		if ok != (want != nil) {
			t.Fatalf("hit %v, but sealed %v and decodable %v", ok, intact, want != nil)
		}
		if ok && !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("the hit is not the result the entry holds:\n got %+v\nwant %+v", got, want)
		}
		if healed := s.Healed(); !ok && (healed == 1) == intact {
			t.Fatalf("miss with healed %d, trailer intact %v", healed, intact)
		}
	})
}

// BenchmarkStoreGet is the rest of Get beside BenchmarkStoreGetHit: a miss
// (a cold grid point's lookup) and a hit on an entry past the read buffer.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Miss", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, ok, err := s.Get(testKey(1)); err != nil || ok {
				b.Fatalf("absent entry hit (ok=%v err=%v)", ok, err)
			}
		}
	})
	b.Run("LargeEntry", func(b *testing.B) {
		if err := s.Put(testKey(2), seriesResult(1000)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, ok, err := s.Get(testKey(2)); err != nil || !ok {
				b.Fatalf("stored entry missed (ok=%v err=%v)", ok, err)
			}
		}
	})
}
