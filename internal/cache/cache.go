// Package cache is a content-addressed result store for experiment jobs.
// Keys are stable hashes of a job's canonical spec encoding plus the
// engine version (experiments.JobSpec.Hash); values are sim.Result in the
// stable binary codec. Entries are written atomically (temp file + rename)
// and sharded by key prefix, so a store can be shared by concurrent grid
// workers and even by concurrent processes pointing at the same directory.
// Because the key already encodes every semantic input and the engine
// version, entries never go stale: a changed spec or engine simply misses.
//
// On disk, entries group under a directory named after the engine version
// that wrote them (the hash alone cannot reveal it). Old engine versions
// can therefore be pruned wholesale: GC removes every other version's
// subtree — the `experiments -exp cache-gc` maintenance command.
//
// Beside each unfinished spec's future .res entry the store can hold a
// .ckpt file: a mid-run engine snapshot, addressed by the same key. The
// store keeps it as opaque bytes, exactly as sim's CheckpointOptions.Sink
// produced them (gzip over the sealed hyperx-ckpt codec — a form only sim
// reads). Checkpoints let a preempted run resume instead of restarting;
// once the terminal result is cached the checkpoint is orphaned, and
// GCCheckpoints reaps it.
package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/wire"
)

// engineDir is the filesystem-safe name of the engine-version directory
// entries are stored under ("hyperx-sim/4" -> "hyperx-sim_4").
func engineDir(version string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.':
			return r
		}
		return '_'
	}, version)
}

// Store is a directory of cached results. The zero value is not usable;
// call Open.
type Store struct {
	dir    string
	engine string // dir's subdirectory for sim.EngineVersion, resolved once
	hits   atomic.Int64
	misses atomic.Int64
	healed atomic.Int64 // entries found damaged and degraded to a miss
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{dir: dir, engine: filepath.Join(dir, engineDir(sim.EngineVersion))}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// entryPath places what the store holds for key — the ".res" result entry,
// or the ".ckpt" checkpoint beside it — under the engine version's
// directory, sharded by the first two key characters to keep directory
// listings manageable on paper-scale grids (tens of thousands of entries).
// A checkpoint is engine- and spec-addressed exactly like the result it may
// become, so a resumed worker finds it with nothing but the spec hash.
//
// A key is at least three characters of [0-9a-z] — every spec hash is 64 of
// them — so the path is one concatenation that cannot leave the store: no
// separator, dot or NUL can reach it.
func (s *Store) entryPath(key, ext string) (string, error) {
	if len(key) < 3 {
		return "", fmt.Errorf("cache: key %q too short", key)
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'z') {
			return "", fmt.Errorf("cache: key %q has a byte outside [0-9a-z]", key)
		}
	}
	const sep = string(filepath.Separator)
	return s.engine + sep + key[:2] + sep + key[2:] + ext, nil
}

// WriteFileAtomic writes data to path (creating its directory if needed)
// through a .tmp- file beside it and a rename, so a concurrent reader never
// sees a partial file and a crash mid-write leaves either the previous file
// or a temp file — which, in a store, the next GCCheckpoints sweeps up —
// never a torn path.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// Get returns the cached result for key, or ok == false on a miss. A
// corrupt, truncated or unreadable entry counts as a miss (and is left
// for Put to overwrite, the self-healing path) rather than failing the
// run: on-disk damage may cost a recompute, never correctness. Every
// entry ends in a SHA-256 trailer that is verified here; one without a
// valid trailer is damage. Hit/miss tallies feed Stats; healed damage
// feeds Healed.
//
// A hit is what a warm re-render pays per grid point: the key check and
// one path concatenation, the read (on unix one open, read and close,
// readEntry), the trailer and the decode.
func (s *Store) Get(key string) (res *sim.Result, ok bool, err error) {
	p, err := s.entryPath(key, ".res")
	if err != nil {
		return nil, false, err
	}
	data, err := readEntry(p)
	if err != nil {
		s.misses.Add(1)
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		s.healed.Add(1)
		return nil, false, nil // unreadable entry: recompute
	}
	res, damaged := decodeEntry(data)
	if res == nil {
		s.misses.Add(1)
		if damaged {
			s.healed.Add(1) // bitflip/truncation: the re-run will overwrite it
		}
		return nil, false, nil // corrupt or old-codec entry: recompute
	}
	s.hits.Add(1)
	return res, true, nil
}

// entryReadBytes is the stack buffer a unix readEntry reads an entry into:
// a result without a long Series is a few hundred bytes.
const entryReadBytes = 4096

// decodeEntry decodes one .res file body: a SHA-256 trailer over the codec
// bytes (wire.Seal). A matching trailer proves the bytes survived the
// disk, so a decode failure past it means an old codec version (a plain
// miss, not damage); anything without a matching trailer is damage.
func decodeEntry(data []byte) (res *sim.Result, damaged bool) {
	body, ok := wire.Open(data)
	if !ok {
		return nil, true
	}
	res, err := sim.DecodeResult(body)
	if err != nil {
		return nil, false // intact bytes, unknown codec: plain miss
	}
	return res, false
}

// Healed returns how many damaged entries this handle has degraded to
// misses — each one a corrupt or truncated file that the re-run's Put
// transparently overwrites (the self-healing cache counter).
func (s *Store) Healed() int64 { return s.healed.Load() }

// Put stores a result under key, atomically: concurrent writers of the
// same key (which by construction hold bit-identical encodings) race
// harmlessly on the final rename. The entry ends in a SHA-256 trailer
// over the codec bytes so Get can tell on-disk damage from a stale codec.
func (s *Store) Put(key string, res *sim.Result) error {
	p, err := s.entryPath(key, ".res")
	if err != nil {
		return err
	}
	return WriteFileAtomic(p, wire.Seal(res.AppendBinary(nil)))
}

// GetCheckpoint returns the stored engine snapshot for key, byte for byte
// as PutCheckpoint took it, or ok == false when there is none or it cannot
// be read. The store does not look inside: a damaged snapshot is refused by
// the run that resumes it (sim.ErrBadSnapshot), which then restarts from
// zero — always safe.
func (s *Store) GetCheckpoint(key string) (snap []byte, ok bool) {
	p, err := s.entryPath(key, ".ckpt")
	if err != nil {
		return nil, false
	}
	snap, err = readEntry(p)
	return snap, err == nil && len(snap) > 0
}

// PutCheckpoint stores an engine snapshot under key — the bytes a
// sim.CheckpointOptions.Sink received, as they are — atomically: a crash
// mid-write leaves either the previous checkpoint or a .tmp- file the next
// GC sweeps up, never a torn .ckpt.
func (s *Store) PutCheckpoint(key string, snap []byte) error {
	p, err := s.entryPath(key, ".ckpt")
	if err != nil {
		return err
	}
	return WriteFileAtomic(p, snap)
}

// RemoveCheckpoint deletes the checkpoint for key, if any. Called when a
// run reaches its terminal Result — the checkpoint is then dead weight
// (and GC would reap it anyway).
func (s *Store) RemoveCheckpoint(key string) error {
	p, err := s.entryPath(key, ".ckpt")
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// GCCheckpoints prunes orphaned checkpoint files from the kept engine
// subtree, the only one the running engine writes: a .ckpt whose spec
// already has a cached terminal .res will never be resumed (Get always
// wins), and a leftover .tmp- file is an interrupted atomic write.
// Stale-engine checkpoints fall with their subtree in GC, and whatever
// else the directory holds is not the store's to judge. Returns the
// number of files removed and the bytes reclaimed.
func (s *Store) GCCheckpoints() (removed int, reclaimed int64, err error) {
	err = filepath.WalkDir(s.engine, func(path string, d os.DirEntry, werr error) error {
		if werr != nil {
			if path == s.engine && os.IsNotExist(werr) {
				return nil // nothing stored under this engine yet
			}
			return werr
		}
		if d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		orphan := strings.HasPrefix(base, ".tmp-")
		if filepath.Ext(path) == ".ckpt" {
			if _, serr := os.Stat(strings.TrimSuffix(path, ".ckpt") + ".res"); serr == nil {
				orphan = true
			}
		}
		if !orphan {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return ierr
		}
		if rerr := os.Remove(path); rerr != nil {
			return rerr
		}
		removed++
		reclaimed += info.Size()
		return nil
	})
	if err != nil {
		return removed, reclaimed, fmt.Errorf("cache: %w", err)
	}
	return removed, reclaimed, nil
}

// Stats returns the cumulative hit and miss counts of this store handle.
func (s *Store) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// Len walks the store and returns the number of entries on disk (all
// engine versions).
func (s *Store) Len() (int, error) {
	return countEntries(s.dir)
}

func countEntries(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".res" {
			n++
		}
		return nil
	})
	return n, err
}

// GC prunes every entry this build treats as stale: the subtrees of
// unknown engine versions and any legacy flat-layout shard directories
// (from stores written before entries were grouped by engine version).
// Only the subtree of sim.EngineVersion is kept. GC returns the number of
// entry files removed. Only subtrees that look cache-owned — nothing
// inside but .res entries, leftover .tmp- files and shard directories —
// are touched, so a -cache-dir pointed at a directory holding unrelated
// data loses none of it. Concurrent writers of the kept version are never
// disturbed.
func (s *Store) GC() (removed int, err error) {
	keep := engineDir(sim.EngineVersion)
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("cache: %w", err)
	}
	for _, de := range entries {
		if !de.IsDir() || de.Name() == keep {
			continue
		}
		sub := filepath.Join(s.dir, de.Name())
		owned, n, cerr := cacheOwned(sub)
		if cerr != nil {
			return removed, fmt.Errorf("cache: %w", cerr)
		}
		if !owned {
			continue // foreign data: not ours to delete
		}
		if err := os.RemoveAll(sub); err != nil {
			return removed, fmt.Errorf("cache: %w", err)
		}
		removed += n
	}
	return removed, nil
}

// cacheOwned reports whether a subtree demonstrably belongs to the store
// — it holds at least one artifact (.res entry, .ckpt checkpoint,
// .journal grid journal or .tmp- temp file) and nothing else — and how
// many entries it holds. A subtree with no files at all is NOT owned: an
// empty directory says nothing about who made it, and GC must never
// guess in favour of deletion.
func cacheOwned(dir string) (owned bool, entries int, err error) {
	owned = true
	artifacts := 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		switch {
		case filepath.Ext(path) == ".res":
			entries++
			artifacts++
		case filepath.Ext(path) == ".ckpt":
			artifacts++ // mid-run checkpoint of an unfinished spec
		case filepath.Ext(path) == ".journal":
			artifacts++ // append-only grid journal of a -serve run
		case strings.HasPrefix(filepath.Base(path), ".tmp-"):
			artifacts++ // interrupted atomic write
		default:
			owned = false
			return filepath.SkipAll
		}
		return nil
	})
	return owned && artifacts > 0, entries, err
}
