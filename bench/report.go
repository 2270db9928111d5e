package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// Header records the machine and the code a report was measured on.
type Header struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Engine     string  `json:"engine"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// Check is one correctness verdict of a report.
type Check struct {
	Name    string `json:"name"`
	Verdict string `json:"verdict"` // ok, unverified, unresolved, FAILED
	Note    string `json:"note,omitempty"`
}

// Report is the one JSON document a full run writes: per workload the
// untraced outcome (end-to-end metrics) and the traced one (per-layer
// rows), then the verdicts.
type Report struct {
	Header    Header              `json:"header"`
	Workloads []string            `json:"workloads"`
	Untraced  map[string]*Outcome `json:"untraced"`
	Traced    map[string]*Outcome `json:"traced"`
	Checks    []Check             `json:"checks"`
}

type reportOptions struct {
	seed         uint64
	seconds      float64
	names        string
	out, spans   string
	deadline     time.Duration
	updateGolden string
	scratch      string
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// runInChild runs one workload in a child process of this program under
// the deadline. A child that hangs, crashes or prints nothing comes back
// as an outcome whose operations all failed, so the report goes on.
func runInChild(o reportOptions, w workload, traced bool) *Outcome {
	detail := filepath.Join(o.scratch, fmt.Sprintf("%s-trace%v.json", w.name, traced))
	defer os.Remove(detail)
	failed := func(err error) *Outcome {
		ops := w.ops(fullScale())
		return &Outcome{Workload: w.name, Seed: o.seed, Traced: traced, Attempted: ops, Failed: ops, Errors: []string{err.Error()}}
	}
	self, err := os.Executable()
	if err != nil {
		return failed(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.deadline)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-detail", detail, "-scratch", o.scratch, "-skip-golden")
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	cmd.WaitDelay = 5 * time.Second
	start := time.Now()
	err = cmd.Run()
	ran := time.Since(start).Seconds()
	fmt.Printf("  child %-12s trace %s ran %5.1f s (deadline %.0f s)\n", w.name, trace, ran, o.deadline.Seconds())
	if ctx.Err() != nil {
		return failed(fmt.Errorf("child exceeded the %.0f s deadline and was killed", o.deadline.Seconds()))
	}
	if err != nil {
		return failed(fmt.Errorf("child: %w", err))
	}
	data, err := os.ReadFile(detail)
	if err != nil {
		return failed(err)
	}
	out := &Outcome{}
	if err := json.Unmarshal(data, out); err != nil {
		return failed(err)
	}
	return out
}

// report runs the chosen workloads, each untraced and traced in a child of
// its own, prints every metric and verdict, and writes the JSON report. It
// returns false when an operation failed or a check did not pass.
func report(o reportOptions) (bool, error) {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return false, err
	}
	var chosen []workload
	for _, w := range workloads() {
		if o.names == "" || strings.Contains(","+o.names+",", ","+w.name+",") {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		return false, fmt.Errorf("no workload matches %q", o.names)
	}
	rep := &Report{
		Header: Header{GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: cpuModel(), Go: runtime.Version(),
			Engine: sim.ActiveEngineVersion(), Commit: repoCommit(), Seed: o.seed, Seconds: o.seconds},
		Untraced: map[string]*Outcome{}, Traced: map[string]*Outcome{},
	}
	fmt.Printf("bench: %s, %d CPUs (GOMAXPROCS %d), %s, engine %s, commit %s, seed %d\n",
		rep.Header.CPU, rep.Header.NProc, rep.Header.GOMAXPROCS, rep.Header.Go, rep.Header.Engine, rep.Header.Commit, o.seed)
	var spans []Span
	for _, w := range chosen {
		rep.Workloads = append(rep.Workloads, w.name)
		rep.Untraced[w.name] = runInChild(o, w, false)
		traced := runInChild(o, w, true)
		spans = append(spans, traced.Spans...)
		traced.Spans = nil
		rep.Traced[w.name] = traced
	}
	g, err := loadGolden()
	if err != nil {
		return false, err
	}
	if o.updateGolden != "" {
		g = golden{} // nothing is pinned yet as far as this run's verdicts go
	}
	rep.Checks = rep.checks(g)
	rep.print(os.Stdout)

	ok := true
	for _, c := range rep.Checks {
		ok = ok && c.Verdict != "FAILED"
	}
	if o.updateGolden != "" {
		if !ok {
			return false, errors.New("not pinning digests of a run with failed checks")
		}
		if err := rep.pin(o.updateGolden); err != nil {
			return false, err
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			return false, err
		}
	}
	if o.spans != "" {
		if err := writeJSON(o.spans, spans); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checks are the verdicts a whole report supports: every operation
// succeeded (each workload's own checks ran inside its child), the pinned
// digests, and the cross-checks that need two children.
func (r *Report) checks(g golden) []Check {
	var out []Check
	add := func(name string, ok bool, note string) {
		c := Check{Name: name, Verdict: "ok", Note: note}
		if !ok {
			c.Verdict = "FAILED"
		}
		out = append(out, c)
	}
	if _, pinned := g[r.Header.Engine][fmt.Sprint(r.Header.Seed)]; !pinned {
		out = append(out, Check{Name: "golden", Verdict: "unverified",
			Note: fmt.Sprintf("no digests pinned for engine %s and seed %d: cross-checks only", r.Header.Engine, r.Header.Seed)})
	}
	for _, name := range r.Workloads {
		u, t := r.Untraced[name], r.Traced[name]
		for _, o := range []*Outcome{u, t} {
			add(fmt.Sprintf("%s (trace %v): no operation failed", name, o.Traced), o.Failed == 0 && o.Correct,
				fmt.Sprintf("%d of %d failed %s", o.Failed, o.Attempted, strings.Join(o.Errors, "; ")))
		}
		if !u.Correct || !t.Correct {
			continue
		}
		if v := g.verdict(r.Header.Seed, name, u.Digest); v != "unverified" {
			add(name+": digest matches golden.json", v == "ok", u.Digest)
		}
		add(name+": traced digest = untraced digest", u.Digest == t.Digest, "")
		out = append(out, overheadCheck(name, t))
	}
	both := func(a, b string) (*Outcome, *Outcome, bool) {
		x, y := r.Untraced[a], r.Untraced[b]
		return x, y, x != nil && y != nil && x.Correct && y.Correct
	}
	if cold, served, ok := both("grid-cold", "grid-served"); ok {
		add("grid-served digest = grid-cold digest", cold.Digest == served.Digest, "")
	}
	if loaded, ckpt, ok := both("loaded", "checkpointed"); ok {
		add("checkpointed and resumed bytes = loaded PolSP-0.7 bytes",
			loaded.Points[0] == ckpt.Points[0] && loaded.Points[0] == ckpt.Points[1], "")
	}
	return out
}

// overheadCheck is the verdict on trace.overhead_pct <= 10. The figure
// rests on a few repetitions, so when those disagree by more than the limit
// itself a reading above it is unresolved, not a failure.
func overheadCheck(name string, t *Outcome) Check {
	const limit = 0.10
	pct := t.Metrics["trace.overhead_pct"].Value
	c := Check{Name: name + ": trace.overhead_pct <= 10", Verdict: "ok", Note: fmt.Sprintf("%.1f %%", pct)}
	if pct > 100*limit {
		c.Verdict = "FAILED"
		for _, key := range []string{"wall_s", "traced_wall_s"} {
			if s := t.Spread[key]; noisy(s, s.Min, limit*s.Min) {
				c.Verdict = "unresolved"
				c.Note += fmt.Sprintf("; %s min %.3g median %.3g s over %d repetitions", key, s.Min, s.Median, s.N)
			}
		}
	}
	return c
}

// pin writes this report's digests into the golden file, keeping the pins
// of other engine versions and seeds.
func (r *Report) pin(path string) error {
	g := golden{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	seed := fmt.Sprint(r.Header.Seed)
	if g[r.Header.Engine] == nil {
		g[r.Header.Engine] = map[string]map[string]string{}
	}
	if g[r.Header.Engine][seed] == nil {
		g[r.Header.Engine][seed] = map[string]string{}
	}
	for _, name := range r.Workloads {
		g[r.Header.Engine][seed][name] = r.Untraced[name].Digest
	}
	return writeJSON(path, g)
}

// print writes every metric by name with its unit, per workload, then the
// verdicts.
func (r *Report) print(w io.Writer) {
	for _, name := range r.Workloads {
		u, t := r.Untraced[name], r.Traced[name]
		fmt.Fprintf(w, "\n== %s: %d timed repetitions, %d/%d operations failed ==\n", name, u.Reps, u.Failed, u.Attempted)
		for _, d := range endToEnd {
			m, ok := u.Metrics[d.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-34s %14.6g %-16s", d.Name, m.Value, m.Unit)
			if s, ok := u.Spread[d.Name]; ok {
				line += fmt.Sprintf(" min %.6g median %.6g max %.6g n %d", s.Min, s.Median, s.Max, s.N)
			}
			fmt.Fprintln(w, line)
		}
		fmt.Fprintf(w, "  %-34s %14.6g\n", "failed_share", float64(u.Failed)/float64(max(1, u.Attempted)))
		names := make([]string, 0, len(t.Metrics))
		for n := range t.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "    %-32s %14.6g %s\n", n, t.Metrics[n].Value, t.Metrics[n].Unit)
		}
	}
	fmt.Fprintln(w, "\n== correctness ==")
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  %-10s %s %s\n", c.Verdict, c.Name, c.Note)
	}
}
