package cliutil

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/topo"
)

func TestParseDims(t *testing.T) {
	good := map[string][]int{
		"16x16":  {16, 16},
		"8x8x8":  {8, 8, 8},
		" 4X4 ":  {4, 4},
		"2x3x4":  {2, 3, 4},
		"32":     {32},
		"8x8X08": {8, 8, 8},
	}
	for in, want := range good {
		got, err := ParseDims(in)
		if err != nil {
			t.Errorf("ParseDims(%q): %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("ParseDims(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("ParseDims(%q) = %v, want %v", in, got, want)
			}
		}
	}
	for _, bad := range []string{"", "x", "4x", "axb", "4x1", "0x8", "-4x4"} {
		if _, err := ParseDims(bad); err == nil {
			t.Errorf("ParseDims(%q) accepted", bad)
		}
	}
}

func TestParseShape(t *testing.T) {
	cases := map[string]topo.ShapeKind{
		"row":      topo.ShapeRow,
		"Row":      topo.ShapeRow,
		"subplane": topo.ShapeSubBlock,
		"SUBCUBE":  topo.ShapeSubBlock,
		"subblock": topo.ShapeSubBlock,
		"cross":    topo.ShapeCross,
		"star ":    topo.ShapeCross,
	}
	for in, want := range cases {
		got, err := ParseShape(in)
		if err != nil || got != want {
			t.Errorf("ParseShape(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseShape("blob"); err == nil {
		t.Error("unknown shape accepted")
	}
}

func TestParseLoads(t *testing.T) {
	loads, err := ParseLoads("0.1, 0.5,1.0")
	if err != nil || len(loads) != 3 || loads[0] != 0.1 || loads[2] != 1.0 {
		t.Errorf("ParseLoads = %v, %v", loads, err)
	}
	for _, bad := range []string{"", "0", "1.5", "abc", "0.5,,2.0"} {
		if _, err := ParseLoads(bad); err == nil {
			t.Errorf("ParseLoads(%q) accepted", bad)
		}
	}
	// Trailing commas are tolerated.
	if loads, err := ParseLoads("0.3,"); err != nil || len(loads) != 1 {
		t.Errorf("trailing comma: %v, %v", loads, err)
	}
}

func TestResolveWorkers(t *testing.T) {
	if _, err := ResolveWorkers(-1); err == nil {
		t.Error("negative workers accepted")
	}
	if n, err := ResolveWorkers(0); err != nil || n != 0 {
		t.Errorf("ResolveWorkers(0) = %d, %v; want 0 passed through to the runner", n, err)
	}
	if n, err := ResolveWorkers(7); err != nil || n != 7 {
		t.Errorf("ResolveWorkers(7) = %d, %v", n, err)
	}
}

// TestRunFlags: the shared flags parse under their names, and Apply
// refuses what both CLIs refused — negative -workers, and checkpointing
// with nowhere to keep snapshots unless they leave the process.
func TestRunFlags(t *testing.T) {
	parse := func(args ...string) *RunFlags {
		t.Helper()
		var f RunFlags
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f.Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return &f
	}
	f := parse()
	if f.Seed != 1 || f.Workers != 0 || f.RunWorkers != -1 || f.Checkpointing() || f.MemStats {
		t.Errorf("defaults: %+v", f)
	}
	r, err := f.Apply(false)
	if err != nil || r.Workers != 0 || r.RunWorkers >= 0 || r.Cache != nil || r.Snapshots != nil || r.Checkpoint != nil || r.Execute != nil {
		t.Errorf("default Apply = %+v, %v", r, err)
	}
	if r.Drain == nil || r.Draining() {
		t.Errorf("default Apply: drain flag %v, want a lowered one", r.Drain)
	}
	if r, _ := parse("-run-workers", "0").Apply(false); r.RunWorkers != experiments.DefaultWorkers(0) {
		t.Errorf("-run-workers 0 = %d run workers, want one per CPU", r.RunWorkers)
	}
	if _, err := parse("-workers", "-1").Apply(false); err == nil {
		t.Error("negative -workers accepted")
	}
	if _, err := parse("-checkpoint-cycles", "100").Apply(false); err == nil {
		t.Error("checkpointing without a store accepted")
	}
	if _, err := parse("-checkpoint-every", "1s").Apply(true); err != nil {
		t.Errorf("checkpointing whose snapshots leave the process refused: %v", err)
	}
	dir := t.TempDir()
	f = parse("-seed", "9", "-run-workers", "2", "-checkpoint-cycles", "100", "-cache-dir", dir, "-mem-stats")
	r, err = f.Apply(false)
	if err != nil || r.Cache == nil || r.Cache.Dir() != dir || r.Snapshots != nil || r.RunWorkers != 2 ||
		r.Checkpoint == nil || *r.Checkpoint != (experiments.CheckpointPolicy{EveryCycles: 100}) {
		t.Errorf("Apply with -cache-dir = %+v, %v", r, err)
	}
	if f.Seed != 9 || !f.MemStats || !f.Checkpointing() {
		t.Errorf("parsed: %+v", f)
	}
}

// TestStartCPUProfile: -cpuprofile writes a profile that its stop function
// flushes, a second stop is harmless, and without the flag nothing is
// started.
func TestStartCPUProfile(t *testing.T) {
	var f RunFlags
	stop, err := f.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	f.CPUProfile = filepath.Join(t.TempDir(), "cpu.prof")
	if stop, err = f.StartProfiles(); err != nil {
		t.Fatal(err)
	}
	stop()
	stop()
	b, err := os.ReadFile(f.CPUProfile)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b { // a profile is gzipped protobuf
		t.Fatalf("-cpuprofile wrote %d bytes that are no gzipped profile", len(b))
	}
}

// TestStartTrace: -trace writes an execution trace that the same stop
// function flushes, alone and beside -cpuprofile; a second stop is
// harmless, and a -trace file that cannot be created fails the start and
// leaves no profile running — the next start succeeds.
func TestStartTrace(t *testing.T) {
	dir := t.TempDir()
	isTrace := func(path string) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte("go 1.")) || !bytes.Contains(b[:16], []byte(" trace")) {
			t.Fatalf("-trace wrote %d bytes that are no execution trace: %q", len(b), b[:min(len(b), 16)])
		}
	}
	f := RunFlags{Trace: filepath.Join(dir, "alone.trace")}
	stop, err := f.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop()
	isTrace(f.Trace)

	f = RunFlags{CPUProfile: filepath.Join(dir, "cpu.prof"), Trace: filepath.Join(dir, "missing", "x.trace")}
	if _, err := f.StartProfiles(); err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("an uncreatable -trace file: err %v", err)
	}
	f.Trace = filepath.Join(dir, "both.trace")
	if stop, err = f.StartProfiles(); err != nil {
		t.Fatalf("after a failed start: %v", err)
	}
	stop()
	isTrace(f.Trace)
	if info, err := os.Stat(f.CPUProfile); err != nil || info.Size() == 0 {
		t.Fatalf("-cpuprofile beside -trace: %v", err)
	}
}

// TestReportCache pins the tally line both CLIs print on stderr, which CI
// greps byte for byte, and its absence without a store.
func TestReportCache(t *testing.T) {
	var b strings.Builder
	ReportCache(&b, nil)
	if b.Len() != 0 {
		t.Fatalf("no store: wrote %q", b.String())
	}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Get(strings.Repeat("ab", 32)); ok || err != nil {
		t.Fatalf("empty store: Get = %v, %v", ok, err)
	}
	ReportCache(&b, store)
	if got, want := b.String(), "cache: 0 hits, 1 misses\n"; got != want {
		t.Fatalf("ReportCache wrote %q, want %q", got, want)
	}
}
