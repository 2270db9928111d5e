package main

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/experiments"
)

func declNames(decls []decl) []string {
	names := make([]string, len(decls))
	for i, d := range decls {
		names[i] = d.Name
	}
	return slices.Sorted(slices.Values(names))
}

// TestBenchmarkJSON holds the committed declaration and the program
// together: the file at the root is exactly what the tables here render.
func TestBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from -print-benchmark-json; regenerate it")
	}
}

// TestSmoke runs every workload at toy scale, untraced and traced, in this
// process: each must emit exactly the declared metric names, fail no
// operation, leave no experiments hook installed, and return the same bytes
// traced and untraced. All simulations run at Workers: 1.
func TestSmoke(t *testing.T) {
	e := newEnv(7, toyScale(), t.TempDir())
	untraced := map[string]*Outcome{}
	for _, w := range workloads() {
		u := measure(w, e, 0, false)
		tr := measure(w, e, 0, true)
		untraced[w.name] = u
		for _, o := range []*Outcome{u, tr} {
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Fatalf("%s (traced %v): %d of %d operations failed: %v", w.name, o.Traced, o.Failed, o.Attempted, o.Errors)
			}
		}
		if got, want := slices.Sorted(maps.Keys(u.Metrics)), declNames(endToEnd); !slices.Equal(got, want) {
			t.Errorf("%s: end-to-end metrics %v, declared %v", w.name, got, want)
		}
		if got, want := slices.Sorted(maps.Keys(tr.Metrics)), declNames(perLayer); !slices.Equal(got, want) {
			t.Errorf("%s: per-layer metrics %v, declared %v", w.name, got, want)
		}
		for name, m := range u.Metrics {
			if m.Value == 0 || m.Unit == "" {
				t.Errorf("%s: end-to-end metric %s = %v %q", w.name, name, m.Value, m.Unit)
			}
		}
		if u.Digest != tr.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", w.name, tr.Digest, u.Digest)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("%s: traced run recorded no span", w.name)
		}
		if experiments.ResultCache() != nil {
			t.Fatalf("%s left a result cache installed", w.name)
		}
	}
	if cold, served := untraced["grid-cold"], untraced["grid-served"]; cold.Digest != served.Digest {
		t.Errorf("grid-served digest %s, grid-cold %s", served.Digest, cold.Digest)
	}
	loaded, ckpt := untraced["loaded"], untraced["checkpointed"]
	if loaded.Points[0] != ckpt.Points[0] || loaded.Points[0] != ckpt.Points[1] {
		t.Errorf("checkpointed bytes %v differ from the loaded PolSP-0.7 bytes %s", ckpt.Points, loaded.Points[0])
	}
}

// TestCompare checks the three verdicts of -compare.
func TestCompare(t *testing.T) {
	outcome := func(best, median float64) *Outcome {
		return &Outcome{Attempted: 3, Metrics: map[string]Metric{"wall_s": {best, "s"}},
			Spread: map[string]Range{"wall_s": {Min: best, Median: median, Max: median, N: 3}}}
	}
	write := func(name string, o *Outcome) string {
		path := filepath.Join(t.TempDir(), name)
		r := &Report{Workloads: []string{"loaded"}, Untraced: map[string]*Outcome{"loaded": o}}
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", outcome(2.0, 2.05))
	for _, c := range []struct {
		name      string
		change    *Outcome
		wantWorse bool
		wantWord  string
	}{
		{"same", outcome(2.02, 2.06), false, "ok"},
		{"slower", outcome(2.6, 2.65), true, "worse"},
		{"noisy", outcome(2.05, 2.8), false, "unresolved"},
	} {
		var buf bytes.Buffer
		worse, err := compareReports(&buf, parent, write("change.json", c.change))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse || !bytes.Contains(buf.Bytes(), []byte("wall_s")) ||
			!bytes.Contains(bytes.SplitN(buf.Bytes(), []byte("\n"), 3)[1], []byte(c.wantWord)) {
			t.Errorf("%s: worse %v, want %v and %q in\n%s", c.name, worse, c.wantWorse, c.wantWord, buf.String())
		}
	}
}
