package cache

import (
	"bytes"
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
// replay keeps every intact record and skips the torn one, and the record
// the restarted server appends next does not join the torn line.
func TestJournalTornTail(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Op: JournalAttempt, Key: testKey(1), Worker: "w1", Fate: "worker-lost"}); err != nil {
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
	if len(recs) != 1 || recs[0].Op != JournalAttempt {
		t.Fatalf("torn-tail replay got %+v, want the one intact record", recs)
	}
	if err := j2.Append(JournalRecord{Op: JournalDone, Key: testKey(1)}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, recs, err := s.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(recs) != 2 || recs[1].Op != JournalDone {
		t.Fatalf("replay after appending past a torn tail got %+v, want the attempt and the done", recs)
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
	if err := j.Append(JournalRecord{Op: JournalQuarantine, Key: testKey(1)}); err != nil {
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

// FuzzJournalReplay: any bytes found as grid.journal replay to records or
// are skipped line by line — never an error, never a panic — and what the
// replay retains is bounded by the input: no more records than lines, no
// more string bytes than the file holds. A journal opened over them still
// appends, and the next replay is the same records and then the appended
// one — a torn tail does not swallow the record written after it.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"op":"enum","key":"ab12"}` + "\n" + `{"op":"attempt","key":"ab12","worker":"w1","fate":"worker-lost"}` + "\n" + `{"op":"done","key":"ab12"}` + "\n"))
	f.Add([]byte(`{"op":"quarantine","key":"ab12"}` + "\n" + `{"op":"done","ke`)) // torn tail
	f.Add([]byte("\n\n  \n{\"op\":\"\"}\nnot json\n{\"op\":\"from-a-newer-build\",\"extra\":[1,2,3]}\n"))
	f.Add([]byte(`{"op":"enum","key":"a😀"}`))
	f.Add(bytes.Repeat([]byte(`{"op":"enum"}`), 3)) // one line, three objects
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		p := s.journalPath()
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := s.OpenJournal()
		if err != nil {
			t.Fatalf("replay failed instead of skipping: %v", err)
		}
		if lines := bytes.Count(data, []byte("\n")) + 1; len(recs) > lines {
			t.Fatalf("%d records from %d lines", len(recs), lines)
		}
		held := 0
		for _, rec := range recs {
			if rec.Op == "" {
				t.Fatalf("replayed a record without an op: %+v", rec)
			}
			held += len(rec.Op) + len(rec.Key) + len(rec.Worker) + len(rec.Fate)
		}
		if held > len(data) {
			t.Fatalf("records hold %d string bytes, the file has %d", held, len(data))
		}
		if err := j.Append(JournalRecord{Op: JournalDone, Key: "ab12"}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, again, err := s.OpenJournal()
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		if want := append(recs, JournalRecord{Op: JournalDone, Key: "ab12"}); !reflect.DeepEqual(again, want) {
			t.Fatalf("replay after one append:\n  got %+v\n want %+v", again, want)
		}
	})
}
