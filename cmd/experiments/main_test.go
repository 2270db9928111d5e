package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/topo"
)

// TestFig6KeepsRowsWhenASequenceDisconnects: Fig6 answers a fault sequence
// that disconnects the network with the rows gathered up to there AND an
// error; the driver prints and exports those rows, then returns the error.
// On the 3x3 (18 links) ten random failures leave eight links for nine
// switches, so with this seed the 10-fault prefix is the disconnected one
// and the 0-fault rows are what is gathered.
func TestFig6KeepsRowsWhenASequenceDisconnects(t *testing.T) {
	h := topo.MustHyperX(3, 3)
	var saved []string
	c := figCtx{
		budget: experiments.Budget{Warmup: 50, Measure: 100}, seed: 3, workers: 2,
		h2: h, h3: h,
		save: func(name string, _ []string, rows [][]string) error {
			if len(rows) == 0 {
				t.Errorf("%s exported with no rows", name)
			}
			saved = append(saved, name)
			return nil
		},
	}
	var fig6 figure
	for _, f := range figureRegistry() {
		if f.name == "fig6" {
			fig6 = f
		}
	}
	err := fig6.driver(c, true)
	if err == nil || !strings.Contains(err.Error(), "10 faults disconnected") {
		t.Fatalf("fig6 on the 3x3 returned %v, want the 10-fault prefix reported as disconnected", err)
	}
	if len(saved) != 1 || saved[0] != "fig6-2d" {
		t.Errorf("exported tables %v before returning the error, want [fig6-2d]", saved)
	}
}
