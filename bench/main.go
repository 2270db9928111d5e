// Command bench is the repository's benchmark: seven named workloads, six
// end-to-end metrics and one row per layer, every layer measured from
// outside (see README.md in this directory and BENCHMARK.json at the root).
//
// One workload, as the benchmark driver runs it:
//
//	bash bench/run.sh --workload loaded --seed 1 --seconds 10 --trace 0
//
// Every workload in a child process each, with a report:
//
//	bash bench/run.sh [-seed 1] [-workloads a,b] [-out file] [-spans file]
//	bash bench/run.sh -compare a.json b.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/sim"
)

//go:embed golden.json
var goldenJSON []byte

// golden pins, per engine version, seed and workload, the digest of one
// repetition's results at fullScale.
type golden map[string]map[string]map[string]string

func loadGolden() (golden, error) {
	g := golden{}
	return g, json.Unmarshal(goldenJSON, &g)
}

// verdict compares a digest with the pinned one: "ok", "MISMATCH", or
// "unverified" when this engine version or seed has no pin.
func (g golden) verdict(seed uint64, workload, digest string) string {
	pinned, ok := g[sim.ActiveEngineVersion()][fmt.Sprint(seed)][workload]
	switch {
	case !ok:
		return "unverified"
	case pinned == digest:
		return "ok"
	}
	return "MISMATCH"
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process and print one JSON line")
		seed         = flag.Uint64("seed", 1, "every generated input derives from it")
		seconds      = flag.Float64("seconds", 10, "how long one run of a workload measures")
		trace        = flag.Int("trace", 0, "1: alternate traced repetitions and print the per-layer rows instead")
		detail       = flag.String("detail", "", "with -workload: also write the whole outcome (digests, spread, spans) here")
		skipGolden   = flag.Bool("skip-golden", false, "with -workload: leave the golden.json check to the parent that started this run")
		scratch      = flag.String("scratch", ".bench_build/tmp", "directory for cache stores and child outcomes; emptied on exit")
		names        = flag.String("workloads", "", "report mode: comma-separated subset of the workloads")
		outFile      = flag.String("out", "", "report mode: write the JSON report here")
		spansFile    = flag.String("spans", "", "report mode: write every traced span here")
		deadline     = flag.Duration("deadline", 120*time.Second, "report mode: a child that runs longer is killed and its operations count as failed")
		updateGolden = flag.String("update-golden", "", "report mode: pin this run's digests into the given golden.json")
		compare      = flag.Bool("compare", false, "compare two reports: -compare parent.json change.json")
		printDecl    = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as declared by this program")
	)
	flag.Parse()
	switch {
	case *printDecl:
		os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workloadName != "":
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		if err := runChild(w, *seed, *seconds, *trace == 1, *detail, *scratch, *skipGolden); err != nil {
			fatal(err)
		}
	default:
		ok, err := report(reportOptions{
			seed: *seed, seconds: *seconds, names: *names, out: *outFile, spans: *spansFile,
			deadline: *deadline, updateGolden: *updateGolden, scratch: *scratch,
		})
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runChild measures one workload in this process. The last line of its
// standard output is the result the benchmark driver reads.
func runChild(w workload, seed uint64, seconds float64, traced bool, detail, scratch string, skipGolden bool) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	out := measure(w, newEnv(seed, fullScale(), dir), seconds, traced)
	if g, err := loadGolden(); err != nil {
		return err
	} else if out.Correct && !skipGolden && g.verdict(seed, w.name, out.Digest) == "MISMATCH" {
		out.Correct, out.Failed = false, out.Attempted
		out.Errors = append(out.Errors, "results differ from golden.json under the pinned engine version")
	}
	for _, e := range out.Errors {
		fmt.Fprintln(os.Stderr, "bench:", w.name+":", e)
	}
	if detail != "" {
		data, err := json.Marshal(out)
		if err != nil {
			return err
		}
		if err := os.WriteFile(detail, data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, out.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s seed %d trace %v: %d repetitions in %.1f s\n", w.name, seed, traced, out.Reps, out.RunS)
	fmt.Println(string(line))
	return nil
}

// benchmarkJSON renders the root BENCHMARK.json from the declarations.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, _ := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n')
}

// runSeconds is BENCHMARK.json's run_seconds: what --seconds the driver
// passes. fullScale is sized for it.
const runSeconds = 10

// repoCommit names the commit under test when the tree is a git checkout.
func repoCommit() string {
	for dir, _ := os.Getwd(); ; dir = filepath.Dir(dir) {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				if sha, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
					return strings.TrimSpace(string(sha))
				}
				return name
			}
			return ref
		}
		if dir == filepath.Dir(dir) {
			return "unknown"
		}
	}
}
