//go:build unix

package cache

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestStoreGetFIFOIsHealedMiss: a FIFO in an entry's place is damage like
// any other — a prompt miss counted as healed, not a Get blocked forever
// waiting for a writer — and the re-run's Put replaces it.
func TestStoreGetFIFOIsHealedMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(4)
	p, err := s.entryPath(key, ".res")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(p, 0o644); err != nil {
		t.Skipf("no FIFOs here: %v", err)
	}
	type answer struct {
		ok  bool
		err error
	}
	done := make(chan answer, 1)
	go func() {
		_, ok, err := s.Get(key)
		done <- answer{ok, err}
	}()
	select {
	case a := <-done:
		if a.ok || a.err != nil {
			t.Fatalf("FIFO entry: ok %v, err %v; want a plain miss", a.ok, a.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get blocked on a FIFO entry")
	}
	if hits, misses := s.Stats(); hits != 0 || misses != 1 || s.Healed() != 1 {
		t.Errorf("FIFO entry: %d hits, %d misses, %d healed, want 0/1/1", hits, misses, s.Healed())
	}
	res := seriesResult(3)
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); !ok || err != nil {
		t.Errorf("Put did not replace the FIFO: ok %v, err %v", ok, err)
	}
}
