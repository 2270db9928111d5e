package cache

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestJournalRoundTrip: records append fsynced and replay in order on the
// next open — the restart path of a killed -serve process.
func TestJournalRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, recs, err := s.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []JournalRecord{
		{Op: JournalEnum, Key: testKey(1)},
		{Op: JournalAttempt, Key: testKey(1), Worker: "w1", Fate: "worker-lost"},
		{Op: JournalDone, Key: testKey(2)},
		{Op: JournalQuarantine, Key: testKey(1)},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := s.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", recs, want)
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial final line;
// replay keeps every intact record and skips the torn one.
func TestJournalTornTail(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Op: JournalEnum, Key: testKey(1)}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","ke`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j2, recs, err := s.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 1 || recs[0].Op != JournalEnum {
		t.Fatalf("torn-tail replay got %+v, want the one intact record", recs)
	}
}

// TestJournalSubtreeStaysCacheOwned: an engine subtree holding a journal
// beside its entries is still recognized as cache-owned, so GC can prune
// it wholesale when the engine goes stale — and never mistakes it for
// foreign data it must not touch.
func TestJournalSubtreeStaysCacheOwned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Op: JournalEnum, Key: testKey(1)}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := s.Put(testKey(1), &sim.Result{AcceptedLoad: 0.5}); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, engineDir(sim.EngineVersion))
	owned, entries, err := cacheOwned(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !owned || entries != 1 {
		t.Errorf("journal subtree owned=%v entries=%d, want owned with 1 entry", owned, entries)
	}
	// A stale-engine subtree holding only a journal is owned too.
	old := filepath.Join(dir, "hyperx-sim_1")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "grid.journal"), []byte(`{"op":"enum"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Error("stale engine subtree with a journal survived GC")
	}
}
