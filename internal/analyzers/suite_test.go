package analyzers_test

import (
	"testing"

	"repro/internal/analyzers"
	"repro/internal/analyzers/analyzertest"
)

// The fixture tests assert, per analyzer, at least one positive finding
// (want) and at least one allowed (negative) shape, including reasoned
// //hx:allow suppressions. The harness fails on both unexpected and
// missing diagnostics, so weakening a fixture's determinism guard (for
// example deleting the sort.Ints call behind sortedViaHelper, or the
// sort.Strings in keys) turns a negative case into an unexpected finding
// and fails the test.

func TestMapRange(t *testing.T) {
	analyzertest.Run(t, "testdata/src/maprange", "maprange", analyzers.MapRange)
}

func TestRNGDiscipline(t *testing.T) {
	analyzertest.Run(t, "testdata/src/rngdiscipline", "rngdiscipline", analyzers.RNGDiscipline)
}

func TestRNGDisciplineBlessed(t *testing.T) {
	analyzertest.Run(t, "testdata/src/rngdiscipline/blessed", "rngdiscipline/blessed", analyzers.RNGDiscipline)
}

func TestShardSafe(t *testing.T) {
	analyzertest.Run(t, "testdata/src/shardsafe", "shardsafe", analyzers.ShardSafe)
}

func TestUnstableSort(t *testing.T) {
	analyzertest.Run(t, "testdata/src/unstablesort", "unstablesort", analyzers.UnstableSort)
}

func TestCodecCoverage(t *testing.T) {
	analyzertest.Run(t, "testdata/src/codeccoverage", "codeccoverage", analyzers.CodecCoverage)
}

func TestUnusedExport(t *testing.T) {
	analyzertest.Run(t, "testdata/src/unusedexport", "internal/unusedexport", analyzers.UnusedExport(nil))
}

// TestSuiteSelfHostClean runs the whole suite over the whole module — the
// exact check CI's lint job performs with `go run ./cmd/hxlint ./...` —
// and requires zero findings, so the repo can never merge code that its
// own determinism contracts flag. One internal package alone and the
// examples alone must be as clean: unusedexport's referrers come from the
// whole module, so an export only other packages call is no finding when
// they are not among the patterns (CI runs `hxlint ./examples/...` too).
func TestSuiteSelfHostClean(t *testing.T) {
	if testing.Short() {
		t.Skip("self-host lint type-checks the full module; skipped in -short")
	}
	for _, pattern := range []string{"repro/...", "repro/internal/topo", "repro/examples/..."} {
		diags, err := analyzers.RunSuite(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: self-host finding: %s", pattern, d)
		}
	}
}
