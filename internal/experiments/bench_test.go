package experiments

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareBenchMemory pins the regression guard's arithmetic: growth
// inside the tolerance passes, growth past it fails naming the row, and a
// ladder row with no baseline is tolerated (new sizes must not break the
// guard retroactively); the baseline is read at the call, so a caller that
// then writes the report over it has still compared against the old bytes.
func TestCompareBenchMemory(t *testing.T) {
	base := BenchReport{
		Schema: BenchSchema,
		Memory: []MemBenchResult{
			{Name: "mem-8x8x8", Switches: 512, BytesPerSwitch: 20000},
			{Name: "mem-16x16x16", Switches: 4096, BytesPerSwitch: 30000},
		},
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := WriteBench(path, base); err != nil {
		t.Fatal(err)
	}

	ok := BenchReport{Memory: []MemBenchResult{
		{Name: "mem-8x8x8", BytesPerSwitch: 21000},    // +5%
		{Name: "mem-16x16x16", BytesPerSwitch: 28000}, // shrank
		{Name: "mem-32x32x32", BytesPerSwitch: 60000}, // no baseline row
	}}
	if err := CompareBenchMemory(path, ok, 0.10); err != nil {
		t.Fatalf("within-tolerance report rejected: %v", err)
	}

	bad := BenchReport{Memory: []MemBenchResult{
		{Name: "mem-8x8x8", BytesPerSwitch: 23000}, // +15%
		{Name: "mem-16x16x16", BytesPerSwitch: 30000},
	}}
	err := CompareBenchMemory(path, bad, 0.10)
	if err == nil {
		t.Fatal("15% growth passed a 10% guard")
	}
	if !strings.Contains(err.Error(), "mem-8x8x8") {
		t.Fatalf("failure does not name the regressed row: %v", err)
	}

	if err := CompareBenchMemory(filepath.Join(t.TempDir(), "missing.json"), ok, 0.10); err == nil {
		t.Fatal("missing baseline file accepted")
	}

	// -bench-out defaults to the committed baseline's own path, so the CLI
	// compares before it writes: once the regressed report above has
	// overwritten the baseline, the guard compares it with itself and
	// passes.
	if err := WriteBench(path, bad); err != nil {
		t.Fatal(err)
	}
	if err := CompareBenchMemory(path, bad, 0.10); err != nil {
		t.Fatalf("a report compared with itself failed: %v", err)
	}
}
