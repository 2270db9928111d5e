package experiments

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ckptSpec is a small, busy spec the checkpoint wiring tests run in
// milliseconds.
func ckptSpec() JobSpec {
	return JobSpec{
		Topo: topo.Spec{Kind: topo.KindHyperX, Dims: []int{4, 4}}, Per: 4,
		Mechanism: "PolSP", Pattern: "Uniform", VCs: 4,
		Load: 0.7, Budget: Budget{Warmup: 200, Measure: 1000},
		Seed: 31, PatternSeed: 9,
	}
}

// TestRunSpecCheckpointedResume: snapshots stream through the caller's
// sink, and resuming one in a fresh run yields the uninterrupted result.
func TestRunSpecCheckpointedResume(t *testing.T) {
	t.Parallel()
	spec := ckptSpec()
	ref, err := Runner{}.RunSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Checkpoint: &CheckpointPolicy{EveryCycles: 400}}
	var snaps [][]byte
	res, err := r.RunSpecVia(&spec, nil, func(s []byte) error {
		snaps = append(snaps, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Fatal("checkpointed run diverged from plain run")
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots shipped")
	}
	resumed, err := r.RunSpecVia(&spec, snaps[len(snaps)-1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, resumed) {
		t.Fatal("resumed run diverged from plain run")
	}
}

// TestRunCheckpointedBadResumeFallsBack: a resume snapshot the engine
// refuses restarts the run from zero instead of failing or corrupting it —
// a torn one, a gzip bomb (8 MB of zeros in a few KB), and intact
// hyperx-ckpt/1, /2, /4, /5 and /6 ones (internal/sim's negative seeds, refused at
// the codec byte), each passed as the .ckpt file that holds it,
// which is what a worker of an older format hands over in a mixed fleet.
func TestRunCheckpointedBadResumeFallsBack(t *testing.T) {
	t.Parallel()
	spec := ckptSpec()
	ref, err := Runner{}.RunSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var bomb bytes.Buffer
	zw := gzip.NewWriter(&bomb)
	if _, err := zw.Write(make([]byte, 8<<20)); err != nil || zw.Close() != nil {
		t.Fatal("cannot build the gzip bomb")
	}
	type resume struct {
		name   string
		resume []byte
	}
	cases := []resume{{"torn", []byte("torn checkpoint")}, {"gzip bomb", bomb.Bytes()}}
	for _, n := range []int{1, 2, 4, 5, 6} {
		old, err := os.ReadFile(fmt.Sprintf("../sim/testdata/ckpt%d-4x4-polsp-2faults.gz", n))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, resume{fmt.Sprintf("hyperx-ckpt/%d", n), old})
	}
	for _, tc := range cases {
		res, err := Runner{}.RunSpecVia(&spec, tc.resume, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("%s: fallback run diverged from plain run", tc.name)
		}
	}
}

// TestSpecRunCachedCheckpoint: with a policy and a snapshot store on the
// Runner, RunSpec stores checkpoints under the spec hash, resumes from them
// in a fresh run, and removes the checkpoint once the terminal result lands.
// A corrupt stored checkpoint falls back to a from-zero run and is pruned.
// The store is Snapshots alone, not Cache, so every call below simulates.
func TestSpecRunCachedCheckpoint(t *testing.T) {
	t.Parallel()
	spec := ckptSpec()
	ref, err := Runner{}.RunSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Snapshots: store, Checkpoint: &CheckpointPolicy{EveryCycles: 400}}
	key := spec.Hash()

	// Interrupt the first attempt mid-run — the same Runner with its drain
	// flag already raised: the final snapshot must land in the store and
	// the run must report ErrCheckpointed.
	drained := r
	drained.Drain = new(atomic.Bool)
	drained.Drain.Store(true)
	if _, err := drained.RunSpec(&spec); !errors.Is(err, sim.ErrCheckpointed) {
		t.Fatalf("drained run returned %v, want ErrCheckpointed", err)
	}
	if _, ok := store.GetCheckpoint(key); !ok {
		t.Fatal("drained run left no checkpoint")
	}

	// The retry resumes from the stored checkpoint, matches the plain run,
	// and cleans the checkpoint up.
	res, err := r.RunSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Fatal("cache-resumed run diverged from plain run")
	}
	if _, ok := store.GetCheckpoint(key); ok {
		t.Error("finished run left its checkpoint behind")
	}

	// A corrupt stored checkpoint: from-zero fallback, same result, pruned.
	if err := store.PutCheckpoint(key, []byte("garbage snapshot")); err != nil {
		t.Fatal(err)
	}
	res, err = r.RunSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Fatal("run after corrupt checkpoint diverged from plain run")
	}
	if _, ok := store.GetCheckpoint(key); ok {
		t.Error("corrupt checkpoint survived the fallback run")
	}
}

// TestCachedCheckpointSharesResultKey: on a Runner with a result cache and a
// checkpoint policy (snapshots kept in the cache), a grid whose specs share
// one fault list is drained mid-run, leaving one checkpoint per spec under
// its Hash; the rerun resumes from those, stores each result under the same
// key, and removes the checkpoints.
func TestCachedCheckpointSharesResultKey(t *testing.T) {
	t.Parallel()
	faults := []topo.Edge{{U: 1, V: 5}, {U: 6, V: 2}}
	specs := []JobSpec{ckptSpec(), ckptSpec()}
	for i := range specs {
		specs[i].Faults, specs[i].Seed = faults, uint64(i)
	}
	ref, err := Runner{}.ExecuteJobs(specs)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Cache: store, Checkpoint: &CheckpointPolicy{EveryCycles: 400}}
	drained := r
	drained.Drain = new(atomic.Bool)
	drained.Drain.Store(true)
	if _, err := drained.ExecuteJobs(specs); !errors.Is(err, sim.ErrCheckpointed) {
		t.Fatalf("drained grid returned %v, want ErrCheckpointed", err)
	}
	ckpts := 0
	err = filepath.WalkDir(store.Dir(), func(path string, _ fs.DirEntry, err error) error {
		if filepath.Ext(path) == ".ckpt" {
			ckpts++
		}
		return err
	})
	if err != nil || ckpts != len(specs) {
		t.Fatalf("drained grid left %d checkpoints (err %v), want %d", ckpts, err, len(specs))
	}
	for i := range specs {
		if _, ok := store.GetCheckpoint(specs[i].Hash()); !ok {
			t.Fatalf("spec %d: no checkpoint under its Hash", i)
		}
	}
	res, err := r.ExecuteJobs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Fatal("resumed grid diverged from the plain one")
	}
	for i := range specs {
		key := specs[i].Hash()
		if got, ok, err := store.Get(key); err != nil || !ok || !reflect.DeepEqual(got, ref[i]) {
			t.Errorf("spec %d: result not stored under its Hash (ok %v, err %v)", i, ok, err)
		}
		if _, ok := store.GetCheckpoint(key); ok {
			t.Errorf("spec %d: finished run left its checkpoint behind", i)
		}
	}
}
