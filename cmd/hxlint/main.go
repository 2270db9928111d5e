// Command hxlint runs the repository's determinism analyzer suite
// (internal/analyzers) over Go packages: a multichecker in the spirit of
// golang.org/x/tools/go/analysis/multichecker, built on the offline
// framework in internal/analyzers/framework.
//
// Usage:
//
//	hxlint [-list] [packages]
//
// Packages default to ./... . Exit status: 0 clean, 1 findings, 2 failed
// to load or type-check.
//
// Findings are suppressed in place with `//hx:allow <analyzer> <reason>`
// on the flagged line or the line directly above; an allow without a
// reason is itself a finding. See README "Determinism discipline".
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analyzers"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hxlint [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers.All(nil) {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers.All(nil) {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := analyzers.RunSuite(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hxlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hxlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
