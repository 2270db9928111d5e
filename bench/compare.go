package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareReports applies each end-to-end metric's bound, per workload, to
// a parent report and a change report and prints one row per pair:
//
//	ok          the change's value is within the bound of the parent's
//	worse       it is not (also: more operations failed)
//	unresolved  either run was noisy: the median of its repetitions is
//	            further from its best one than the change allowed
//
// It returns true when any row is worse.
func compareReports(w io.Writer, parentPath, changePath string) (worse bool, err error) {
	parent, err := readReport(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readReport(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "parent", "change", "change%", "bound%", "verdict")
	for _, name := range parent.Workloads {
		p, c := parent.Untraced[name], change.Untraced[name]
		if c == nil {
			continue
		}
		for _, d := range endToEnd {
			pm, cm := p.Metrics[d.Name], c.Metrics[d.Name]
			if pm.Value == 0 {
				continue
			}
			// sign makes "larger is worse" hold for both directions.
			sign := 1.0
			if d.Better == "higher" {
				sign = -1
			}
			allowed := max(d.Bound*pm.Value, d.Floor)
			verdict := "ok"
			switch {
			case sign*(cm.Value-pm.Value) > allowed:
				verdict, worse = "worse", true
			case noisy(p.Spread[d.Name], pm.Value, allowed) || noisy(c.Spread[d.Name], cm.Value, allowed):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-20s %14.6g %14.6g %+8.2f %6.0f  %s\n", name, d.Name, pm.Value, cm.Value,
				100*(cm.Value-pm.Value)/pm.Value, 100*d.Bound, verdict)
		}
		verdict := "ok"
		if c.Failed*p.Attempted > p.Failed*c.Attempted {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-13s %-20s %14s %14s %8s %6s  %s\n", name, "failed_share",
			fmt.Sprintf("%d/%d", p.Failed, p.Attempted), fmt.Sprintf("%d/%d", c.Failed, c.Attempted), "", "0", verdict)
	}
	return worse, nil
}

// noisy reports whether the repetitions behind a run's best value v
// disagree by more than allowed: their median against v.
func noisy(r Range, v, allowed float64) bool {
	return r.N > 0 && math.Abs(r.Median-v) > allowed
}
