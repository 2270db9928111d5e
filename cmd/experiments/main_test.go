package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/topo"
)

func figureNamed(t *testing.T, name string) figure {
	t.Helper()
	for _, f := range figureRegistry() {
		if f.name == name {
			return f
		}
	}
	t.Fatalf("no figure %q in the registry", name)
	return figure{}
}

// enumerateOnly is a Runner over a result cache on an empty directory whose
// executor fails the test for any spec that reaches it: for code that must
// only enumerate, or only read the store.
func enumerateOnly(t *testing.T) experiments.Runner {
	t.Helper()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return experiments.Runner{Workers: 2, Cache: store, Execute: func(s *experiments.JobSpec) (*sim.Result, error) {
		t.Errorf("executor reached with %s", s)
		return &sim.Result{}, nil
	}}
}

// TestGridIdentity pins what every simulating figure enumerates at -seed 1,
// small scale: the spec count and the first 8 bytes of SHA-256 over
// spec.Hash()+"\n" in enumeration order, measured on the fused drivers
// before they were split into grids (with an executor that recorded the
// hashes at workers=1). A digest that moves means cached results stop
// hitting and a -serve journal stops resuming. Building the grids is pure:
// it neither executes nor touches the result cache.
func TestGridIdentity(t *testing.T) {
	t.Parallel()
	r := enumerateOnly(t)
	want := map[string]string{
		"fig4":     "180 779f2b2d595dd70e",
		"fig5":     "240 5b763195b5543ea7",
		"fig6":     "70 1533de2ec89a5b34", // 2D then 3D
		"fig8":     "24 fae4b9ac2530bdea",
		"fig9":     "32 d8e4c4f57e41636c",
		"fig10":    "2 0afc9b281061a939",
		"section7": "21 f1fb9afdf938ea76",
		"recovery": "2 23c12330d33faa7f",
	}
	c := newFigCtx(false, 1, r)
	for _, f := range figureRegistry() {
		if f.grid == nil {
			continue
		}
		h, n := sha256.New(), 0
		for _, p := range f.grid(c) {
			for i := range p.specs {
				io.WriteString(h, p.specs[i].Hash()+"\n")
				n++
			}
		}
		if got := fmt.Sprintf("%d %x", n, h.Sum(nil)[:8]); got != want[f.name] {
			t.Errorf("%s enumerates %s, want %s", f.name, got, want[f.name])
		}
		delete(want, f.name)
	}
	for name := range want {
		t.Errorf("%s is not a simulating figure of the registry", name)
	}
	if hits, misses := r.Cache.Stats(); hits != 0 || misses != 0 {
		t.Errorf("building the grids touched the cache: %d hits, %d misses", hits, misses)
	}
}

// TestCoverageReadsTheStoreOnly: cache-gc coverage on a store warmed by
// fig10 finds both fig10 points and none of any other figure, and never
// reaches the executor.
func TestCoverageReadsTheStoreOnly(t *testing.T) {
	t.Parallel()
	r := enumerateOnly(t)
	store := r.Cache
	warm := newFigCtx(false, 1, experiments.Runner{Workers: 2, Cache: store})
	warm.save = func(string, []string, [][]string) error { return nil }
	if err := figureNamed(t, "fig10").execute(warm); err != nil {
		t.Fatal(err)
	}
	c := newFigCtx(false, 1, r)
	for _, f := range figureRegistry() {
		if f.grid == nil {
			continue
		}
		parts := f.grid(c)
		specs := 0
		for _, p := range parts {
			specs += len(p.specs)
		}
		wantHits, wantMisses := int64(0), int64(specs)
		if f.name == "fig10" {
			wantHits, wantMisses = 2, 0
		}
		if hits, misses := coverage(store, parts); hits != wantHits || misses != wantMisses {
			t.Errorf("%s: %d hits %d misses, want %d/%d", f.name, hits, misses, wantHits, wantMisses)
		}
	}
}

// TestFig6KeepsRowsWhenASequenceDisconnects: Fig6Grid answers a fault
// sequence that disconnects the network with the rows gathered up to there
// AND an error; the figure prints and exports those rows, then returns the
// error.
// On the 3x3 (18 links) ten random failures leave eight links for nine
// switches, so with this seed the 10-fault prefix is the disconnected one
// and the 0-fault rows are what is gathered.
func TestFig6KeepsRowsWhenASequenceDisconnects(t *testing.T) {
	t.Parallel()
	h := topo.MustHyperX(3, 3)
	var saved []string
	c := figCtx{
		budget: experiments.Budget{Warmup: 50, Measure: 100}, seed: 3, runner: experiments.Runner{Workers: 2},
		h2: h, h3: h,
		save: func(name string, _ []string, rows [][]string) error {
			if len(rows) == 0 {
				t.Errorf("%s exported with no rows", name)
			}
			saved = append(saved, name)
			return nil
		},
	}
	err := figureNamed(t, "fig6").execute(c)
	if err == nil || !strings.Contains(err.Error(), "10 faults disconnected") {
		t.Fatalf("fig6 on the 3x3 returned %v, want the 10-fault prefix reported as disconnected", err)
	}
	if len(saved) != 1 || saved[0] != "fig6-2d" {
		t.Errorf("exported tables %v before returning the error, want [fig6-2d]", saved)
	}
}
