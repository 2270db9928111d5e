// Command experiments regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows or series the paper
// reports, for comparison against the published figures; no comparison is
// recorded in the repository yet.
//
// Usage:
//
//	experiments -exp table3            # topological parameters
//	experiments -exp fig1              # diameter vs random failures
//	experiments -exp fig4              # 2D fault-free load sweep
//	experiments -exp fig5 -full        # 3D sweep on the paper's 8x8x8
//	experiments -exp fig6              # random-fault throughput sweep
//	experiments -exp fig8 -exp fig9    # structured fault shapes
//	experiments -exp fig10             # completion time under the Star
//	experiments -exp all
//
// Default runs use scaled-down networks (8x8 and 4x4x4) that finish in
// minutes on a laptop; -full switches to the paper's 16x16 / 8x8x8 with
// long windows (hours).
//
// Incremental and distributed execution:
//
//	experiments -exp all -cache-dir ~/.hxcache   # recompute only changed points
//	experiments -serve :7031 -exp fig5 -full     # hand jobs to remote workers
//	experiments -worker host:7031                # join a serve run from any machine
//
// With -cache-dir every simulation point is keyed by a content hash of its
// job spec (plus the engine version); re-running an unchanged grid is 100%
// cache hits and byte-identical output. With -serve the grids are enumerated
// and folded here but every point executes on connected -worker processes
// and results merge in enumeration order, bit-identical to a local run. Serve mode
// tolerates crashed, hung and poisonous participants: every job runs under
// one fixed lease (2 min), which the worker's checkpoint frames renew — a
// worker ships one at least every half lease, whatever its -checkpoint-*
// flags — and workers heartbeat; lost jobs requeue with their latest
// snapshots, a job that keeps killing workers is quarantined after three
// distinct losses, and with -cache-dir the server journals the grid so a
// killed -serve process can be restarted with the same command line and
// resume where it left off (see the README's "Failure model").
//
// Maintenance and export:
//
//	experiments -exp cache-gc -cache-dir ~/.hxcache  # prune stale engines, report per-figure coverage
//	experiments -exp fig10 -csv-dir ./out            # also write out/fig10.csv
//	experiments -exp fig10 -jsonl-dir ./out          # also write out/fig10.jsonl (one record per point)
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/topo"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, strings.ToLower(v)); return nil }

// progressPrinter turns the runner's (done, total) callbacks into throttled
// "progress: done/total (ETA mm:ss)" lines on stderr. The runner calls it
// from worker goroutines and counts may arrive out of order; one mutex
// serializes the state and the output, and the monotone maxDone discards
// stragglers. A done == 0 call marks the start of a new grid (each figure
// runs one or more grids).
type progressPrinter struct {
	store   *cache.Store // the Runner's result cache, for the hit/miss tally; may be nil
	mu      sync.Mutex
	total   int
	maxDone int
	start   time.Time
	lastAt  time.Time
}

// cacheSuffix renders the result cache's running hit/miss tally for the
// progress line; empty without a cache.
func (p *progressPrinter) cacheSuffix() string {
	if p.store == nil {
		return ""
	}
	hits, misses := p.store.Stats()
	return fmt.Sprintf(" [cache %d hits, %d misses]", hits, misses)
}

func (p *progressPrinter) report(done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if done == 0 || total != p.total {
		p.total, p.maxDone, p.start, p.lastAt = total, 0, now, time.Time{}
		if done == 0 {
			return // grid-start signal; nothing to report yet
		}
	}
	if done <= p.maxDone {
		return // out-of-order report of an already-passed count
	}
	p.maxDone = done
	if done < total && now.Sub(p.lastAt) < time.Second {
		return
	}
	p.lastAt = now
	elapsed := now.Sub(p.start)
	if done == total {
		fmt.Fprintf(os.Stderr, "progress: %d/%d (grid done in %s)%s\n",
			done, total, elapsed.Round(time.Millisecond), p.cacheSuffix())
		return
	}
	line := fmt.Sprintf("progress: %d/%d", done, total)
	if elapsed > 0 {
		eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		line += fmt.Sprintf(" (ETA %02d:%02d)", int(eta.Minutes()), int(eta.Seconds())%60)
	}
	fmt.Fprintln(os.Stderr, line+p.cacheSuffix())
}

// figCtx carries the per-invocation inputs every figure reads: the scale
// and budget knobs, the shared topologies and escape roots, the Runner and
// progress observer handed to experiments.Run, and the structured-table
// sink (CSV/JSONL exports).
type figCtx struct {
	budget       experiments.Budget
	seed         uint64
	runner       experiments.Runner
	progress     func(done, total int) // nil with -progress=false
	full         bool
	h2, h3       *topo.HyperX
	root2, root3 int32
	// save exports one structured table to the configured -csv-dir and
	// -jsonl-dir; it is a no-op when neither is set.
	save func(name string, header []string, rows [][]string) error
}

// newFigCtx resolves -full, -seed and the flags' Runner into the inputs of
// every figure: the scaled topologies, the budget and the escape roots. The
// caller adds the progress observer and the export sink.
func newFigCtx(full bool, seed uint64, r experiments.Runner) figCtx {
	scale, budget := experiments.ScaleSmall, experiments.DefaultBudget()
	if full {
		scale, budget = experiments.ScaleFull, experiments.PaperBudget()
	}
	h2, h3 := experiments.Topology2D(scale), experiments.Topology3D(scale)
	return figCtx{
		budget: budget, seed: seed, runner: r, full: full,
		h2: h2, h3: h3, root2: centerSwitch(h2), root3: centerSwitch(h3),
	}
}

// figure is one entry of the figure registry, with exactly one of its two
// functions set. A graph-only figure has run, which computes, prints and
// exports directly. A simulating figure has grid, which only enumerates:
// the dispatch executes each part through experiments.Run, and the cache-gc
// coverage report looks the parts' specs up in the store. Both consumers
// walk this single list, so adding a figure cannot drift between them.
type figure struct {
	name string
	run  func(c figCtx) error
	grid func(c figCtx) []gridPart
}

// gridPart is one experiments.Grid of a figure with its row type erased:
// the specs it would run, and run to execute, render and export them.
type gridPart struct {
	specs []experiments.JobSpec
	run   func() error
}

// part binds a grid to its rendering: run executes the grid on the pool,
// prints render(title, rows) and saves csv(rows) as the table called name.
func part[R any](c figCtx, name, title string, g experiments.Grid[R],
	render func(title string, rows []R) string, csv func(rows []R) ([]string, [][]string)) gridPart {
	return gridPart{specs: g.Specs, run: func() error {
		rows, err := experiments.Run(c.runner, c.progress, g)
		// A fault sequence that disconnects the network (Figure 6) comes
		// back as the rows gathered up to there AND an error: the rows are
		// printed and exported before the error ends the figure.
		if len(rows) > 0 {
			fmt.Print(render(title, rows))
			hd, crows := csv(rows)
			if err := c.save(name, hd, crows); err != nil {
				return err
			}
		}
		return err
	}}
}

// figureRegistry lists every experiment in output order.
func figureRegistry() []figure {
	return []figure{
		{name: "cost", run: func(c figCtx) error {
			out, err := experiments.RenderCost()
			if err != nil {
				return err
			}
			fmt.Print(out)
			return nil
		}},
		{name: "table2", run: func(c figCtx) error {
			fmt.Print(experiments.RenderTable2())
			return nil
		}},
		{name: "table3", run: func(c figCtx) error {
			rows := experiments.Table3Rows(c.runner.Workers, experiments.Topology2D(experiments.ScaleFull),
				experiments.Topology3D(experiments.ScaleFull))
			fmt.Print(experiments.RenderTable3Rows(rows))
			h, crows := experiments.Table3CSV(rows)
			return c.save("table3", h, crows)
		}},
		{name: "table4", run: func(c figCtx) error {
			fmt.Print(experiments.RenderTable4())
			return nil
		}},
		{name: "fig1", run: func(c figCtx) error {
			// The paper sweeps an 8x8x8 with several random sequences.
			step := 16
			if c.full {
				step = 64
			}
			points := experiments.Fig1(c.h3, []uint64{c.seed, c.seed + 1, c.seed + 2}, step, c.runner.Workers)
			fmt.Print(experiments.RenderFig1(c.h3, points))
			hd, rows := experiments.Fig1CSV(points)
			return c.save("fig1", hd, rows)
		}},
		{name: "fig4", grid: func(c figCtx) []gridPart {
			return []gridPart{part(c, "fig4", fmt.Sprintf("Figure 4: 2D %s fault-free sweep", c.h2),
				experiments.SweepGrid(experiments.SweepConfig{H: c.h2, Budget: c.budget, Seed: c.seed}),
				experiments.RenderSweep, experiments.SweepCSV)}
		}},
		{name: "fig5", grid: func(c figCtx) []gridPart {
			return []gridPart{part(c, "fig5", fmt.Sprintf("Figure 5: 3D %s fault-free sweep", c.h3),
				experiments.SweepGrid(experiments.SweepConfig{H: c.h3, Budget: c.budget, Seed: c.seed}),
				experiments.RenderSweep, experiments.SweepCSV)}
		}},
		{name: "fig6", grid: func(c figCtx) []gridPart {
			maxFaults := 40
			if c.full {
				maxFaults = 100
			}
			var parts []gridPart
			for _, h := range []*topo.HyperX{c.h2, c.h3} {
				parts = append(parts, part(c, fmt.Sprintf("fig6-%dd", h.NDims()),
					fmt.Sprintf("Figure 6: %s under random failures", h),
					experiments.Fig6Grid(experiments.Fig6Config{
						H: h, MaxFaults: maxFaults, Step: 10, Budget: c.budget, Seed: c.seed,
					}),
					experiments.RenderFig6, experiments.Fig6CSV))
			}
			return parts
		}},
		{name: "fig7", run: func(c figCtx) error {
			for _, hr := range []struct {
				h    *topo.HyperX
				root int32
			}{{c.h2, c.root2}, {c.h3, c.root3}} {
				out, err := experiments.RenderFig7(hr.h, hr.root)
				if err != nil {
					return err
				}
				fmt.Print(out)
			}
			return nil
		}},
		{name: "fig8", grid: func(c figCtx) []gridPart {
			return []gridPart{part(c, "fig8", fmt.Sprintf("Figure 8: %s under fault shapes (root %d)", c.h2, c.root2),
				experiments.ShapesGrid(experiments.ShapesConfig{H: c.h2, Budget: c.budget, Seed: c.seed, Root: c.root2}),
				experiments.RenderShapes, experiments.ShapesCSV)}
		}},
		{name: "fig9", grid: func(c figCtx) []gridPart {
			return []gridPart{part(c, "fig9", fmt.Sprintf("Figure 9: %s under fault shapes (root %d)", c.h3, c.root3),
				experiments.ShapesGrid(experiments.ShapesConfig{H: c.h3, Budget: c.budget, Seed: c.seed, Root: c.root3}),
				experiments.RenderShapes, experiments.ShapesCSV)}
		}},
		{name: "fig10", grid: func(c figCtx) []gridPart {
			burstPhits := 1600
			if c.full {
				burstPhits = 8000 // the paper's 8000 phits per server
			}
			return []gridPart{part(c, "fig10", fmt.Sprintf("Figure 10: completion time, RPN + Star faults on %s", c.h3),
				experiments.Fig10Grid(experiments.Fig10Config{H: c.h3, BurstPhits: burstPhits, Seed: c.seed, Root: c.root3}),
				experiments.RenderFig10, experiments.Fig10CSV)}
		}},
		{name: "section7", grid: func(c figCtx) []gridPart {
			return []gridPart{part(c, "section7", "Section 7: the escape subnetwork beyond HyperX",
				experiments.Section7Grid(c.seed, c.budget),
				experiments.RenderSection7, experiments.Section7CSV)}
		}},
		{name: "recovery", grid: func(c figCtx) []gridPart {
			return []gridPart{part(c, "recovery", fmt.Sprintf("Extension: live link failures with BFS table rebuild on %s", c.h3),
				experiments.RecoveryGrid(experiments.RecoveryConfig{H: c.h3, Seed: c.seed, Root: c.root3}),
				experiments.RenderRecovery, experiments.RecoveryCSV)}
		}},
	}
}

func main() {
	var exps multiFlag
	flag.Var(&exps, "exp", "experiment to run: table2|table3|table4|fig1|fig4|fig5|fig6|fig7|fig8|fig9|fig10|recovery|cost|section7|all (repeatable); cache-gc prunes and audits a -cache-dir instead of running anything")
	full := flag.Bool("full", false, "use the paper's full-size networks and long windows")
	progressFlag := flag.Bool("progress", true, "report done/total (ETA) progress lines on stderr")
	serveAddr := flag.String("serve", "", "serve mode: listen on this address and execute every simulation point on connected -worker processes")
	workerAddr := flag.String("worker", "", "worker mode: connect to a -serve address and run jobs for it (-workers sets the slot count; -exp is ignored)")
	csvDir := flag.String("csv-dir", "", "also write one CSV per figure/table into this directory (lossless floats, diffable)")
	jsonlDir := flag.String("jsonl-dir", "", "also write one JSONL file per figure/table into this directory (one schema-stable record per grid point, byte-stable on re-export)")
	var run cliutil.RunFlags // -seed, -workers, -run-workers, -cache-dir, -checkpoint-*, -mem-stats, -cpuprofile, -trace
	run.Register(flag.CommandLine)
	flag.Parse()

	// A worker needs no local checkpoint store: its snapshots stream to the
	// server.
	r, err := run.Apply(*workerAddr != "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	stopProfile, err := run.StartProfiles()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	// Every exit from here on flushes the -cpuprofile and -trace files: exit
	// stops them before os.Exit, a normal return by the defer, which runs
	// last.
	defer stopProfile()
	exit := func(code int) {
		stopProfile()
		os.Exit(code)
	}
	store, seed := r.Cache, run.Seed

	if *workerAddr != "" {
		r.Workers = experiments.DefaultWorkers(r.Workers) // the slot count
		// SIGTERM/SIGINT starts a graceful drain: in-flight jobs stop at
		// their next inter-cycle point and ship final snapshots, the worker
		// announces a bye, and WorkLoop returns cleanly — the server
		// requeues the jobs with their snapshots for other workers. A
		// second signal, or a wedged drain, force-exits.
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "worker: drain requested, checkpointing in-flight jobs")
			r.Drain.Store(true)
			select {
			case <-sigc:
				fmt.Fprintln(os.Stderr, "worker: second signal, exiting now")
			case <-time.After(2 * time.Minute):
				fmt.Fprintln(os.Stderr, "worker: drain deadline exceeded, exiting")
			}
			exit(1)
		}()
		fmt.Fprintf(os.Stderr, "worker: %d slots, connecting to %s\n", r.Workers, *workerAddr)
		if err := queue.WorkLoop(*workerAddr, r); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: worker: %v\n", err)
			exit(1)
		}
		if r.Draining() {
			fmt.Fprintln(os.Stderr, "worker: drained, exiting")
		} else {
			fmt.Fprintln(os.Stderr, "worker: server finished, exiting")
		}
		cliutil.ReportCache(os.Stderr, store)
		return
	}
	if *serveAddr != "" {
		if store == nil {
			fmt.Fprintln(os.Stderr, "serve: no -cache-dir: grid journal disabled, a restarted server starts from scratch")
		}
		srv, err := queue.ServeWith(*serveAddr, queue.ServeOpts{Store: store})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			exit(2)
		}
		defer srv.Close()
		defer func() { fmt.Fprintf(os.Stderr, "serve: %s\n", srv.Stats().Summary()) }()
		r.Execute = srv.Execute
		fmt.Fprintf(os.Stderr, "serve: dispatching jobs on %s (start workers with -worker %s)\n",
			srv.Addr(), srv.Addr())
	}
	defer cliutil.ReportCache(os.Stderr, store)

	if len(exps) == 0 {
		exps = multiFlag{"all"}
	}
	registry := figureRegistry()
	known := make(map[string]bool, len(registry)+2)
	known["all"], known["cache-gc"] = true, true
	for _, fig := range registry {
		known[fig.name] = true
	}
	want := make(map[string]bool)
	for _, e := range exps {
		if !known[e] {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", e)
			exit(2)
		}
		want[e] = true
	}
	all := want["all"]

	ctx := newFigCtx(*full, seed, r)
	ctx.save = tableSaver(*csvDir, *jsonlDir)
	if *progressFlag {
		ctx.progress = (&progressPrinter{store: store}).report
	}

	if run.MemStats {
		// Construction-only accounting for the grids the experiments run
		// on, printed up front on stderr (construction time is wall-clock;
		// stdout stays byte-identical across runs).
		for _, h := range []*topo.HyperX{ctx.h2, ctx.h3} {
			spec := experiments.JobSpec{
				Topo: experiments.HyperXSpec(h), Mechanism: "PolSP", Pattern: "Uniform",
				VCs: 2 * h.NDims(), Per: h.Dims()[0], Load: 0.5, Seed: seed, PatternSeed: seed,
			}
			mem, err := r.MeasureMemory(&spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: mem-stats %s: %v\n", h, err)
				exit(1)
			}
			fmt.Fprintf(os.Stderr, "%s: %s\n", h, mem)
		}
	}

	if want["cache-gc"] {
		// Maintenance, not an experiment: never part of -exp all, and it
		// refuses to share an invocation with real experiments rather
		// than silently dropping them.
		if len(want) > 1 {
			fmt.Fprintln(os.Stderr, "experiments: -exp cache-gc cannot be combined with other experiments")
			exit(2)
		}
		if store == nil {
			fmt.Fprintln(os.Stderr, "experiments: -exp cache-gc requires -cache-dir")
			exit(2)
		}
		if err := runCacheGC(store, registry, ctx); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cache-gc: %v\n", err)
			exit(1)
		}
		return
	}
	for _, fig := range registry {
		if !all && !want[fig.name] {
			continue
		}
		if err := fig.execute(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", fig.name, err)
			exit(1)
		}
		fmt.Println()
	}
}

// execute runs one figure: a graph-only entry directly, a simulating one
// part by part, stopping at the first error.
func (f figure) execute(c figCtx) error {
	if f.grid == nil {
		return f.run(c)
	}
	for _, p := range f.grid(c) {
		if err := p.run(); err != nil {
			return err
		}
	}
	return nil
}

// tableSaver builds the figCtx.save sink for the configured export
// directories; the text rendering on stdout is unaffected either way.
func tableSaver(csvDir, jsonlDir string) func(name string, header []string, rows [][]string) error {
	return func(name string, header []string, rows [][]string) error {
		if csvDir != "" {
			path, err := experiments.WriteCSV(csvDir, name, header, rows)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "csv: wrote %s\n", path)
		}
		if jsonlDir != "" {
			path, err := experiments.WriteJSONL(jsonlDir, name, header, rows)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "jsonl: wrote %s\n", path)
		}
		return nil
	}
}

// runCacheGC is the `-exp cache-gc` maintenance command: it prunes every
// cache entry the running engine version cannot address (older engine
// subtrees and pre-versioning flat shards), then reports per simulating
// figure how many of its specs the store holds — i.e. how much of a real
// run at the current flags (-full, -seed) would come from the cache.
func runCacheGC(store *cache.Store, registry []figure, c figCtx) error {
	removed, err := store.GC()
	if err != nil {
		return err
	}
	entries, err := store.Len()
	if err != nil {
		return err
	}
	fmt.Printf("cache-gc: %s: pruned %d stale entries, %d remain (engine %s)\n",
		store.Dir(), removed, entries, sim.EngineVersion)
	ckpts, reclaimed, err := store.GCCheckpoints()
	if err != nil {
		return err
	}
	fmt.Printf("cache-gc: %s: pruned %d orphaned checkpoints, %d bytes reclaimed\n",
		store.Dir(), ckpts, reclaimed)

	fmt.Printf("cache coverage at the current flags (graph-only experiments have no cacheable points):\n")
	var totalHits, totalMisses int64
	for _, fig := range registry {
		if fig.grid == nil {
			continue
		}
		hits, misses := coverage(store, fig.grid(c))
		totalHits += hits
		totalMisses += misses
		rate := 0.0
		if hits+misses > 0 {
			rate = 100 * float64(hits) / float64(hits+misses)
		}
		fmt.Printf("  %-9s %5d hits %5d misses  (%.0f%%)\n", fig.name, hits, misses, rate)
	}
	fmt.Printf("  %-9s %5d hits %5d misses\n", "total", totalHits, totalMisses)
	return nil
}

// coverage looks every spec of the parts up in the store — the lookup a
// real run starts each point with, trailer verification and decode
// included — and returns how many it holds and how many it does not.
// Nothing is executed and nothing is written.
func coverage(store *cache.Store, parts []gridPart) (hits, misses int64) {
	for _, p := range parts {
		for i := range p.specs {
			if _, ok, err := store.Get(p.specs[i].Hash()); err == nil && ok {
				hits++
			} else {
				misses++
			}
		}
	}
	return hits, misses
}

// centerSwitch picks the middle of the network as the escape root, the
// paper's stressed placement for the shape experiments.
func centerSwitch(h *topo.HyperX) int32 {
	coord := make([]int, h.NDims())
	for i, k := range h.Dims() {
		coord[i] = k/2 - 1
	}
	return h.ID(coord)
}
