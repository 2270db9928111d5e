// Grid journal: the durable half of a -serve run. The work-queue server
// appends one record per grid event that only the journal can bring back —
// a worker attempt lost, a job quarantined — so a killed and restarted
// serve process can reconstruct what its predecessor knew: completed
// points come back from the .res entries, in-flight points from their
// .ckpt snapshots, and poison-job attempt histories from the journal
// itself (a restarted grid must not need a poison spec to kill N fresh
// workers before re-quarantining it).
//
// The file is append-only JSONL, one record per line, fsynced per append:
// a crash can lose at most the record being written, and a torn final
// line is skipped on replay (every record is re-derivable from the events
// that follow a restart). It lives beside the entries it describes, under
// the engine-version directory, with a .journal extension the GC
// ownership check recognizes.
package cache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal ops. The set is append-only: replay ignores unknown ops, so a
// newer build's journal never breaks an older reader.
const (
	// JournalDone records a spec's terminal result being committed. The
	// server no longer appends it (the .res entry is the record); only the
	// frozen bench/ journal probe does, and replay ignores it.
	JournalDone = "done"
	// JournalAttempt records a dispatch attempt that ended badly: the
	// worker vanished with the job, or its lease was revoked.
	JournalAttempt = "attempt"
	// JournalQuarantine records a job pulled from circulation after
	// taking down too many distinct workers.
	JournalQuarantine = "quarantine"
)

// JournalRecord is one line of the grid journal.
type JournalRecord struct {
	Op  string `json:"op"`
	Key string `json:"key,omitempty"` // spec hash
	// Worker and Fate describe attempt records: which worker held the
	// job and how the attempt ended ("worker-lost", "lease-revoked").
	Worker string `json:"worker,omitempty"`
	Fate   string `json:"fate,omitempty"`
}

// Journal is an open append handle on a store's grid journal. Append is
// safe for concurrent use.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// journalPath places the grid journal under the active engine version's
// directory: journal records address spec hashes, and hashes are only
// meaningful within one engine's semantics.
func (s *Store) journalPath() string {
	return filepath.Join(s.engine, "grid.journal")
}

// OpenJournal opens (creating if needed) the store's grid journal for
// appending and replays every intact existing record — the restarted
// server's view of its predecessor's grid. A torn or unparseable line
// (a crash mid-append, a foreign op from a newer build it cannot use)
// is skipped, never fatal: the journal is a recovery accelerator, and
// anything it fails to say is re-derived by re-running.
func (s *Store) OpenJournal() (*Journal, []JournalRecord, error) {
	p := s.journalPath()
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, nil, fmt.Errorf("cache: journal: %w", err)
	}
	var recs []JournalRecord
	data, err := os.ReadFile(p)
	if err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var rec JournalRecord
			if json.Unmarshal(line, &rec) != nil || rec.Op == "" {
				continue // torn tail or foreign line: skip
			}
			recs = append(recs, rec)
		}
	}
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cache: journal: %w", err)
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		// End the torn tail, or the first record appended after it would
		// share its line and be skipped with it on the next replay.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("cache: journal: %w", err)
		}
	}
	return &Journal{f: f}, recs, nil
}

// Append writes one record and fsyncs it: once Append returns nil the
// record survives a kill -9 of the serving process.
func (j *Journal) Append(rec JournalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cache: journal: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("cache: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("cache: journal: %w", err)
	}
	return nil
}

// Close releases the journal's file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
