package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"

	"repro/internal/cache"
)

// This file is the structured result export: one CSV per figure or table,
// written alongside the text renderings so cached grids can be diffed,
// joined and plotted without re-parsing the human-oriented tables. Floats
// are encoded losslessly (shortest round-trip form), so re-exporting an
// unchanged grid — e.g. from a warm result cache — produces byte-identical
// files.

// exportFile writes data to dir/filename, atomically (so a concurrent
// reader never sees a partial table), and returns the written path.
func exportFile(dir, filename string, data []byte) (string, error) {
	if dir == "" {
		return "", fmt.Errorf("experiments: empty export directory")
	}
	path := filepath.Join(dir, filename)
	if err := cache.WriteFileAtomic(path, data); err != nil {
		return "", err
	}
	return path, nil
}

// WriteCSV writes header+rows to dir/name.csv, atomically.
func WriteCSV(dir, name string, header []string, rows [][]string) (string, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(header); err != nil {
		return "", fmt.Errorf("experiments: %w", err)
	}
	if err := w.WriteAll(rows); err != nil {
		return "", fmt.Errorf("experiments: %w", err)
	}
	return exportFile(dir, name+".csv", buf.Bytes())
}

// WriteJSONL writes header+rows to dir/name.jsonl as one JSON object per
// row — the streaming-consumer companion of WriteCSV. Records are
// schema-stable: every object starts with a "figure" key naming the
// table, followed by the header's columns in header order, so consumers
// can mix figures in one stream and key on a fixed shape. Values reuse
// the CSV cells: numeric and boolean cells emit as JSON numbers/booleans,
// everything else as strings. Construction is fully deterministic (same
// atomic temp-file-and-rename as WriteCSV), so re-exporting an unchanged
// grid is byte-identical.
func WriteJSONL(dir, name string, header []string, rows [][]string) (string, error) {
	var buf bytes.Buffer
	for _, row := range rows {
		if len(row) != len(header) {
			return "", fmt.Errorf("experiments: JSONL row has %d cells, header has %d", len(row), len(header))
		}
		buf.WriteString(`{"figure":`)
		buf.Write(jsonlValue(name))
		for i, h := range header {
			buf.WriteByte(',')
			buf.Write(jsonlValue(h))
			buf.WriteByte(':')
			buf.Write(jsonlCell(row[i]))
		}
		buf.WriteString("}\n")
	}
	return exportFile(dir, name+".jsonl", buf.Bytes())
}

// jsonlCell types a CSV cell for JSONL: cells produced by csvF/csvI are
// finite shortest-form numbers and re-render to themselves, so they emit
// as JSON numbers; "true"/"false" emit as booleans; the empty cell (a
// value that does not exist, see SweepCSV) is null; everything else
// (names, labels, and any non-finite float rendering) is a JSON string.
func jsonlCell(cell string) []byte {
	if cell == "" {
		return []byte("null")
	}
	if cell == "true" || cell == "false" {
		return []byte(cell)
	}
	if n, err := strconv.ParseInt(cell, 10, 64); err == nil && strconv.FormatInt(n, 10) == cell {
		return []byte(cell)
	}
	if f, err := strconv.ParseFloat(cell, 64); err == nil &&
		!math.IsInf(f, 0) && !math.IsNaN(f) && strconv.FormatFloat(f, 'g', -1, 64) == cell {
		return []byte(cell)
	}
	return jsonlValue(cell)
}

// jsonlValue renders a JSON string (names are plain ASCII, but escaping is
// delegated to encoding/json so any cell stays valid JSON).
func jsonlValue(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return []byte(`""`)
	}
	return b
}

// csvF renders a float64 in its shortest lossless form, so exported grids
// diff cleanly across runs and machines.
func csvF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func csvI(v int64) string { return strconv.FormatInt(v, 10) }

// SweepCSV flattens load-sweep rows (Figures 4 and 5). A Hole row keeps
// its coordinates and leaves its four metric cells empty (JSON null), so a
// quarantined point is a gap in the export, never a row of zeros.
func SweepCSV(rows []SweepRow) ([]string, [][]string) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		metrics := []string{"", "", "", ""}
		if !r.Hole {
			metrics = []string{csvF(r.Accepted), csvF(r.Latency), csvF(r.Jain), csvF(r.Escape)}
		}
		out[i] = append([]string{r.Mechanism, r.Pattern, csvF(r.Offered)}, metrics...)
	}
	return []string{"mechanism", "pattern", "offered", "accepted", "latency", "jain", "escape"}, out
}

// Fig6CSV flattens the random-fault sweep rows.
func Fig6CSV(rows []Fig6Row) ([]string, [][]string) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Mechanism, r.Pattern, csvI(int64(r.Faults)),
			csvF(r.Accepted), csvF(r.Escape), csvI(int64(r.Diameter))}
	}
	return []string{"mechanism", "pattern", "faults", "accepted", "escape", "diameter"}, out
}

// ShapesCSV flattens the structured-fault rows (Figures 8 and 9).
func ShapesCSV(rows []ShapeRow) ([]string, [][]string) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Mechanism, r.Pattern, r.Shape, csvI(int64(r.Faults)),
			csvF(r.Accepted), csvF(r.Healthy), csvF(r.Escape)}
	}
	return []string{"mechanism", "pattern", "shape", "faults", "accepted", "healthy", "escape"}, out
}

// Fig10CSV flattens the completion-time curves: one row per series bucket,
// with the per-mechanism summary columns repeated for joins.
func Fig10CSV(results []Fig10Result) ([]string, [][]string) {
	var out [][]string
	for _, r := range results {
		for _, p := range r.Series {
			out = append(out, []string{r.Mechanism, csvI(r.CompletionTime),
				csvF(r.PeakAccepted), csvI(p.Cycle), csvF(p.Accepted)})
		}
	}
	return []string{"mechanism", "completion_time", "peak_accepted", "cycle", "accepted"}, out
}

// RecoveryCSV flattens the live-failure timelines, marking the buckets a
// fault fell into.
func RecoveryCSV(results []RecoveryResult) ([]string, [][]string) {
	var out [][]string
	for _, r := range results {
		fi := 0
		for _, p := range r.Series {
			faults := 0
			for fi+faults < len(r.FaultCycles) && r.FaultCycles[fi+faults] < p.Cycle {
				faults++
			}
			fi += faults
			out = append(out, []string{r.Mechanism, csvI(p.Cycle), csvF(p.Accepted),
				csvI(int64(faults)), csvI(r.LostPackets), csvF(r.PreFaultAvg), csvF(r.PostFaultAvg)})
		}
	}
	return []string{"mechanism", "cycle", "accepted", "faults_in_bucket", "lost_packets",
		"pre_fault_avg", "post_fault_avg"}, out
}

// Section7CSV flattens the cross-topology escape comparison.
func Section7CSV(rows []Section7Row) ([]string, [][]string) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Topology, csvI(int64(r.Switches)), csvF(r.AvgStretch),
			csvF(r.MaxStretch), csvF(r.MinimalFraction), csvF(r.EscOnlyAccepted), csvF(r.PolSPAccepted)}
	}
	return []string{"topology", "switches", "avg_stretch", "max_stretch",
		"minimal_fraction", "escape_only_accepted", "polsp_accepted"}, out
}

// Fig1CSV flattens the diameter-vs-failures points.
func Fig1CSV(points []Fig1Point) ([]string, [][]string) {
	out := make([][]string, len(points))
	for i, p := range points {
		out[i] = []string{strconv.FormatUint(p.Seed, 10), csvI(int64(p.Faults)),
			csvI(int64(p.Diameter)), strconv.FormatBool(p.Disconnected)}
	}
	return []string{"seed", "faults", "diameter", "disconnected"}, out
}

// Table3CSV flattens the topological parameters.
func Table3CSV(rows []Table3Row) ([]string, [][]string) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Topology, csvI(int64(r.Switches)), csvI(int64(r.Radix)),
			csvI(int64(r.ServersPer)), csvI(int64(r.Servers)), csvI(int64(r.Links)),
			csvI(int64(r.Diameter)), csvF(r.AvgDistance)}
	}
	return []string{"topology", "switches", "radix", "servers_per_switch", "servers",
		"links", "diameter", "avg_distance"}, out
}
