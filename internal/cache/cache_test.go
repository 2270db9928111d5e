package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func testKey(seed byte) string {
	return strings.Repeat(string([]byte{'a' + seed%16}), 64)
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := &sim.Result{
		AcceptedLoad: 0.5, AvgLatency: 12.5, DeliveredPackets: 100,
		Series: []metrics.SeriesPoint{{Cycle: 100, Accepted: 0.5}},
	}
	key := testKey(0)
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("empty store returned a hit (ok=%v err=%v)", ok, err)
	}
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("stored entry missed (ok=%v err=%v)", ok, err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, res)
	}
	hits, misses := s.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats %d/%d, want 1 hit 1 miss", hits, misses)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d (err %v), want 1", n, err)
	}
}

// TestStoreCorruptEntry: a damaged file must degrade to a miss, not an
// error, and Put must repair it.
func TestStoreCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	res := &sim.Result{AcceptedLoad: 0.25}
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	p, err := s.entryPath(key, ".res")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte{99, 1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("corrupt entry returned a hit (ok=%v err=%v)", ok, err)
	}
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := s.Get(key); !ok || got.AcceptedLoad != 0.25 {
		t.Error("Put did not repair the corrupt entry")
	}
}

// TestStoreBitflipHeals is the self-healing regression: a single flipped
// byte anywhere in a stored entry — including the series payload, where
// the codec alone cannot notice — fails the SHA-256 trailer, degrades to
// a counted miss, and the re-run's Put transparently repairs the entry.
func TestStoreBitflipHeals(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(2)
	res := &sim.Result{
		AcceptedLoad: 0.5, AvgLatency: 12.5, DeliveredPackets: 100,
		Series: []metrics.SeriesPoint{{Cycle: 100, Accepted: 0.5}, {Cycle: 200, Accepted: 0.75}},
	}
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	p, err := s.entryPath(key, ".res")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, len(data) / 2, len(data) - 1} {
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 0x40
		if err := os.WriteFile(p, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(key); err != nil || ok {
			t.Fatalf("bitflip at %d returned a hit (ok=%v err=%v)", pos, ok, err)
		}
	}
	// Truncation (a torn write that somehow dodged the atomic rename) is
	// caught the same way.
	if err := os.WriteFile(p, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(key); ok {
		t.Fatal("truncated entry returned a hit")
	}
	if healed := s.Healed(); healed != 4 {
		t.Errorf("Healed = %d, want 4 (three bitflips + one truncation)", healed)
	}
	// The self-healing half: the miss re-runs and Put repairs.
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("repaired entry not readable (ok=%v err=%v)", ok, err)
	}
}

// TestStoreLegacyTrailerlessEntry: an entry without the SHA-256 trailer
// (raw codec bytes, as builds before the trailer wrote them) is damage like
// any other — a miss tallied as healed, overwritten by the re-run's Put.
func TestStoreLegacyTrailerlessEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(9)
	res := &sim.Result{AcceptedLoad: 0.375, AvgLatency: 9.5}
	p, err := s.entryPath(key, ".res")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, res.AppendBinary(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("trailerless entry read as a hit (ok=%v err=%v)", ok, err)
	}
	if hits, misses := s.Stats(); hits != 0 || misses != 1 || s.Healed() != 1 {
		t.Errorf("trailerless entry: %d hits, %d misses, %d healed, want 0/1/1", hits, misses, s.Healed())
	}
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("rewritten entry not readable (ok=%v err=%v)", ok, err)
	}
}

func TestStoreSharding(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "abcd" + strings.Repeat("0", 60)
	if err := s.Put(key, &sim.Result{}); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, engineDir(sim.EngineVersion), "ab", key[2:]+".res")
	if _, err := os.Stat(want); err != nil {
		t.Errorf("entry not under the engine-version shard at %s: %v", want, err)
	}
}

// TestStoreGC: entries from other engine versions (and pre-versioning
// flat-layout shards) are pruned; the running engine's entries survive and
// stay readable.
func TestStoreGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3)
	if err := s.Put(key, &sim.Result{AcceptedLoad: 0.75}); err != nil {
		t.Fatal(err)
	}
	// Two stale entries from each of two older engines (hyperx-sim/3 is
	// the retired per-cycle-generation engine a former build could select
	// and cache under), one from a legacy flat store.
	staleEngines := []string{"hyperx-sim_1", "hyperx-sim_3"}
	for _, engine := range staleEngines {
		old := filepath.Join(dir, engine, "ab")
		if err := os.MkdirAll(old, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"x.res", "y.res"} {
			if err := os.WriteFile(filepath.Join(old, name), []byte{1}, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	legacy := filepath.Join(dir, "cd")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacy, "z.res"), []byte{1}, 0o644); err != nil {
		t.Fatal(err)
	}
	// Foreign data sharing the directory must survive: GC only removes
	// subtrees that contain nothing but store artifacts.
	foreign := filepath.Join(dir, "plots")
	if err := os.MkdirAll(foreign, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(foreign, "fig10.png"), []byte{0x89}, 0o644); err != nil {
		t.Fatal(err)
	}
	// So must an empty directory: nothing marks it as cache-owned.
	empty := filepath.Join(dir, "staging", "nested")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	removed, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 5 {
		t.Errorf("GC removed %d entries, want 5", removed)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len after GC = %d (err %v), want 1", n, err)
	}
	if got, ok, _ := s.Get(key); !ok || got.AcceptedLoad != 0.75 {
		t.Error("current-engine entry lost by GC")
	}
	for _, engine := range staleEngines {
		if _, err := os.Stat(filepath.Join(dir, engine)); !os.IsNotExist(err) {
			t.Errorf("stale engine directory %s survived GC", engine)
		}
	}
	if _, err := os.Stat(filepath.Join(foreign, "fig10.png")); err != nil {
		t.Errorf("GC deleted foreign data: %v", err)
	}
	if _, err := os.Stat(empty); err != nil {
		t.Errorf("GC deleted an empty (unowned) directory: %v", err)
	}
}

// TestCheckpointRoundTrip: a snapshot is opaque to the store — it lands
// on disk and reads back byte for byte as it was put, whatever it holds —
// and disappears on RemoveCheckpoint, a second remove included. An empty
// .ckpt reads as absent. (A damaged snapshot is the resuming run's to
// refuse: sim's TestInflateSnapshotBounded and TestSnapshotRejectsCorrupt,
// and experiments' TestSpecRunCachedCheckpoint for the fallback.)
func TestCheckpointRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(6)
	if _, ok := s.GetCheckpoint(key); ok {
		t.Fatal("empty store returned a checkpoint")
	}
	snap := []byte(strings.Repeat("engine-state", 100))
	if err := s.PutCheckpoint(key, snap); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetCheckpoint(key)
	if !ok || !bytes.Equal(got, snap) {
		t.Fatal("checkpoint round trip mismatch")
	}
	p, _ := s.entryPath(key, ".ckpt")
	if disk, err := os.ReadFile(p); err != nil || !bytes.Equal(disk, snap) {
		t.Errorf("the .ckpt file does not hold the snapshot verbatim (err %v)", err)
	}
	if err := os.WriteFile(p, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetCheckpoint(key); ok {
		t.Error("empty checkpoint returned")
	}
	if err := s.PutCheckpoint(key, snap); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveCheckpoint(key); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetCheckpoint(key); ok {
		t.Error("removed checkpoint still readable")
	}
	if err := s.RemoveCheckpoint(key); err != nil {
		t.Errorf("double remove errored: %v", err)
	}
}

// TestGCCheckpoints: a checkpoint whose spec has a cached terminal result
// is orphaned and reaped (with its bytes tallied); a checkpoint for an
// unfinished spec survives; a stale-engine checkpoint falls with its
// subtree in plain GC. A directory of the user's beside the store's —
// one holding files that merely look like the store's (a .tmp- draft, a
// .ckpt with a .res beside it) — loses nothing to either, and a store
// with nothing under its engine yet has nothing to prune.
func TestGCCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if removed, reclaimed, err := s.GCCheckpoints(); removed != 0 || reclaimed != 0 || err != nil {
		t.Errorf("GCCheckpoints on an empty store = %d, %d, %v; want 0, 0, nil", removed, reclaimed, err)
	}
	plots := filepath.Join(dir, "plots")
	if err := os.MkdirAll(plots, 0o755); err != nil {
		t.Fatal(err)
	}
	foreign := []string{"fig10.png", ".tmp-draft", "a.ckpt", "a.res"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(plots, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	doneKey, liveKey := testKey(7), testKey(8)
	if err := s.PutCheckpoint(doneKey, []byte("finished")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(doneKey, &sim.Result{AcceptedLoad: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint(liveKey, []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	removed, reclaimed, err := s.GCCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || reclaimed <= 0 {
		t.Errorf("GCCheckpoints removed %d files, %d bytes; want 1 file, > 0 bytes", removed, reclaimed)
	}
	if _, ok := s.GetCheckpoint(doneKey); ok {
		t.Error("orphaned checkpoint survived")
	}
	if _, ok := s.GetCheckpoint(liveKey); !ok {
		t.Error("live checkpoint reaped")
	}
	// A stale engine subtree holding only checkpoints is still
	// cache-owned, so plain GC removes it wholesale.
	old := filepath.Join(dir, "hyperx-sim_1", "ab")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "x.ckpt"), []byte{1}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "hyperx-sim_1")); !os.IsNotExist(err) {
		t.Error("stale engine checkpoint subtree survived GC")
	}
	if _, _, err := s.GCCheckpoints(); err != nil {
		t.Fatal(err)
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(plots, name)); err != nil {
			t.Errorf("GC deleted %s from a directory the store does not own: %v", name, err)
		}
	}
}

func TestStoreErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir accepted")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("ab"); err == nil {
		t.Error("short key accepted")
	}
	if err := s.Put("ab", &sim.Result{}); err == nil {
		t.Error("short key accepted by Put")
	}
}

// BenchmarkStoreGetHit is one warm-cache lookup: resolve the entry path,
// read the file, verify its SHA-256 trailer and decode the result.
func BenchmarkStoreGetHit(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key := testKey(0)
	res := &sim.Result{
		AcceptedLoad: 0.5, AvgLatency: 12.5, DeliveredPackets: 100,
		Series: []metrics.SeriesPoint{{Cycle: 100, Accepted: 0.5}},
	}
	if err := s.Put(key, res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(key); err != nil || !ok {
			b.Fatalf("stored entry missed (ok=%v err=%v)", ok, err)
		}
	}
}
