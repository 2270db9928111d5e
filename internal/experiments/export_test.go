package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteCSVLossless: the CSV export must round-trip floats exactly and
// re-export byte-identically, since its whole point is diffing cached
// grids across runs.
func TestWriteCSVLossless(t *testing.T) {
	dir := t.TempDir()
	rows := []SweepRow{
		{Mechanism: "PolSP", Pattern: "Uniform", Offered: 0.1, Accepted: 1.0 / 3.0, Latency: 42.25, Jain: 0.9999999999999999, Escape: 0},
		{Mechanism: "OmniSP", Pattern: "RPN", Offered: 0.7, Accepted: 0.123456789012345678, Latency: 99, Jain: 1, Escape: 0.25},
	}
	header, crows := SweepCSV(rows)
	p1, err := WriteCSV(dir, "sweep", header, crows)
	if err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	want := "mechanism,pattern,offered,accepted,latency,jain,escape\n" +
		"PolSP,Uniform,0.1,0.3333333333333333,42.25,0.9999999999999999,0\n" +
		"OmniSP,RPN,0.7,0.12345678901234568,99,1,0.25\n"
	if string(first) != want {
		t.Fatalf("CSV content:\n%s\nwant:\n%s", first, want)
	}
	// Re-export over the existing file: byte-identical, atomically replaced.
	if _, err := WriteCSV(dir, "sweep", header, crows); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, "sweep.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("re-export is not byte-identical")
	}
	// No temp litter.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("export left %d directory entries, want 1", len(ents))
	}
}

// TestWriteCSVErrors locks in the empty-dir guard.
func TestWriteCSVErrors(t *testing.T) {
	if _, err := WriteCSV("", "x", []string{"a"}, nil); err == nil {
		t.Error("empty directory accepted")
	}
}

// TestWriteJSONLSchemaStable: the JSONL export emits one schema-stable
// record per grid point — the "figure" key then the header's columns, in
// order, with numeric cells as JSON numbers — every line valid JSON, and
// re-export byte-identical.
func TestWriteJSONLSchemaStable(t *testing.T) {
	dir := t.TempDir()
	rows := []SweepRow{
		{Mechanism: "PolSP", Pattern: "Uniform", Offered: 0.1, Accepted: 1.0 / 3.0, Latency: 42.25, Jain: 0.9999999999999999, Escape: 0},
		{Mechanism: "OmniSP", Pattern: "RPN", Offered: 0.7, Accepted: 0.123456789012345678, Latency: 99, Jain: 1, Escape: 0.25},
	}
	header, crows := SweepCSV(rows)
	p1, err := WriteJSONL(dir, "sweep", header, crows)
	if err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"figure":"sweep","mechanism":"PolSP","pattern":"Uniform","offered":0.1,"accepted":0.3333333333333333,"latency":42.25,"jain":0.9999999999999999,"escape":0}` + "\n" +
		`{"figure":"sweep","mechanism":"OmniSP","pattern":"RPN","offered":0.7,"accepted":0.12345678901234568,"latency":99,"jain":1,"escape":0.25}` + "\n"
	if string(first) != want {
		t.Fatalf("JSONL content:\n%s\nwant:\n%s", first, want)
	}
	// Every line decodes as JSON with the full schema and exact values.
	for _, line := range strings.Split(strings.TrimSpace(string(first)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if rec["figure"] != "sweep" {
			t.Errorf("line %q: figure = %v", line, rec["figure"])
		}
		for _, h := range header {
			if _, ok := rec[h]; !ok {
				t.Errorf("line %q: missing column %q", line, h)
			}
		}
		if _, ok := rec["offered"].(float64); !ok {
			t.Errorf("line %q: offered is not a JSON number", line)
		}
	}
	// Re-export: byte-identical, atomically replaced, no temp litter.
	if _, err := WriteJSONL(dir, "sweep", header, crows); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, "sweep.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("re-export is not byte-identical")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("export left %d directory entries, want 1", len(ents))
	}
	// Mixed cell types: integers stay numbers, free text stays a string.
	fh, frows := Fig1CSV([]Fig1Point{{Seed: 3, Faults: 12, Diameter: 5, Disconnected: true}})
	p3, err := WriteJSONL(dir, "fig1", fh, frows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(p3)
	if err != nil {
		t.Fatal(err)
	}
	wantFig1 := `{"figure":"fig1","seed":3,"faults":12,"diameter":5,"disconnected":true}` + "\n"
	if string(got) != wantFig1 {
		t.Fatalf("fig1 JSONL = %s, want %s", got, wantFig1)
	}
	if _, err := WriteJSONL("", "x", []string{"a"}, nil); err == nil {
		t.Error("empty directory accepted")
	}
}

// TestSweepExportKeepsHoles: a quarantined point reaches the exports as a
// gap — empty metric cells in CSV, null in JSONL — not as a row of zeros,
// and the healthy rows around it are unchanged.
func TestSweepExportKeepsHoles(t *testing.T) {
	dir := t.TempDir()
	header, crows := SweepCSV([]SweepRow{
		{Mechanism: "PolSP", Pattern: "Uniform", Offered: 0.1, Accepted: 0.1, Latency: 42.25, Jain: 1, Escape: 0},
		{Mechanism: "PolSP", Pattern: "Uniform", Offered: 0.2, Hole: true},
	})
	for _, tc := range []struct {
		write func(dir, name string, header []string, rows [][]string) (string, error)
		want  string
	}{
		{WriteCSV, "mechanism,pattern,offered,accepted,latency,jain,escape\n" +
			"PolSP,Uniform,0.1,0.1,42.25,1,0\n" +
			"PolSP,Uniform,0.2,,,,\n"},
		{WriteJSONL, `{"figure":"sweep","mechanism":"PolSP","pattern":"Uniform","offered":0.1,"accepted":0.1,"latency":42.25,"jain":1,"escape":0}` + "\n" +
			`{"figure":"sweep","mechanism":"PolSP","pattern":"Uniform","offered":0.2,"accepted":null,"latency":null,"jain":null,"escape":null}` + "\n"},
	} {
		path, err := tc.write(dir, "sweep", header, crows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n%s\nwant:\n%s", filepath.Base(path), got, tc.want)
		}
	}
}
