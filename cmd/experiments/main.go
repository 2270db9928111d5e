// Command experiments regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows or series the paper
// reports; EXPERIMENTS.md records the comparison against the published
// results.
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
// cache hits and byte-identical output. With -serve the drivers run here
// but every point executes on connected -worker processes and results
// merge in enumeration order, bit-identical to a local run. Serve mode
// tolerates crashed, hung and poisonous participants: jobs run under
// leases with heartbeats, lost jobs requeue with their latest snapshots,
// a job that keeps killing workers is quarantined after -poison-attempts
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
	mu      sync.Mutex
	total   int
	maxDone int
	start   time.Time
	lastAt  time.Time
}

// cacheSuffix renders the result cache's running hit/miss tally for the
// progress line; empty when no cache is installed.
func cacheSuffix() string {
	if experiments.ResultCache() == nil {
		return ""
	}
	hits, misses := experiments.CacheStats()
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
			done, total, elapsed.Round(time.Millisecond), cacheSuffix())
		return
	}
	line := fmt.Sprintf("progress: %d/%d", done, total)
	if elapsed > 0 {
		eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		line += fmt.Sprintf(" (ETA %02d:%02d)", int(eta.Minutes()), int(eta.Seconds())%60)
	}
	fmt.Fprintln(os.Stderr, line+cacheSuffix())
}

// figCtx carries the per-invocation inputs every figure driver reads: the
// scale and budget knobs, the shared topologies and escape roots, and the
// structured-table sink (CSV/JSONL exports).
type figCtx struct {
	scale        experiments.Scale
	budget       experiments.Budget
	seed         uint64
	workers      int
	full         bool
	h2, h3       *topo.HyperX
	root2, root3 int32
	// save exports one structured table to the configured -csv-dir and
	// -jsonl-dir; it is a no-op when neither is set.
	save func(name string, header []string, rows [][]string) error
}

// figure is one entry of the figure registry. The run() dispatch executes
// every selected entry with emit=true (render, print, export); the
// cache-gc coverage probe replays the `simulates` entries with emit=false,
// which enumerates exactly the same simulation specs without producing any
// output. Both consumers walk this single list, so adding a figure cannot
// drift between the dispatch and the probe table.
type figure struct {
	name      string
	simulates bool // enumerates cacheable simulation points
	driver    func(c figCtx, emit bool) error
}

// figureRegistry lists every experiment in output order.
func figureRegistry() []figure {
	return []figure{
		{"cost", false, func(c figCtx, emit bool) error {
			out, err := experiments.RenderCost()
			if err != nil {
				return err
			}
			fmt.Print(out)
			return nil
		}},
		{"table2", false, func(c figCtx, emit bool) error {
			fmt.Print(experiments.RenderTable2())
			return nil
		}},
		{"table3", false, func(c figCtx, emit bool) error {
			rows := experiments.Table3Rows(c.workers, experiments.Topology2D(experiments.ScaleFull),
				experiments.Topology3D(experiments.ScaleFull))
			fmt.Print(experiments.RenderTable3Rows(rows))
			h, crows := experiments.Table3CSV(rows)
			return c.save("table3", h, crows)
		}},
		{"table4", false, func(c figCtx, emit bool) error {
			fmt.Print(experiments.RenderTable4())
			return nil
		}},
		{"fig1", false, func(c figCtx, emit bool) error {
			// The paper sweeps an 8x8x8 with several random sequences.
			step := 16
			if c.full {
				step = 64
			}
			points := experiments.Fig1(c.h3, []uint64{c.seed, c.seed + 1, c.seed + 2}, step, c.workers)
			fmt.Print(experiments.RenderFig1(c.h3, points))
			hd, rows := experiments.Fig1CSV(points)
			return c.save("fig1", hd, rows)
		}},
		{"fig4", true, func(c figCtx, emit bool) error {
			rows, err := experiments.Fig4(c.scale, c.budget, c.seed, c.workers)
			if err != nil || !emit {
				return err
			}
			fmt.Print(experiments.RenderSweep(fmt.Sprintf("Figure 4: 2D %s fault-free sweep", c.h2), rows))
			hd, crows := experiments.SweepCSV(rows)
			return c.save("fig4", hd, crows)
		}},
		{"fig5", true, func(c figCtx, emit bool) error {
			rows, err := experiments.Fig5(c.scale, c.budget, c.seed, c.workers)
			if err != nil || !emit {
				return err
			}
			fmt.Print(experiments.RenderSweep(fmt.Sprintf("Figure 5: 3D %s fault-free sweep", c.h3), rows))
			hd, crows := experiments.SweepCSV(rows)
			return c.save("fig5", hd, crows)
		}},
		{"fig6", true, func(c figCtx, emit bool) error {
			for _, h := range []*topo.HyperX{c.h2, c.h3} {
				rows, err := experiments.Fig6(experiments.Fig6Config{
					H: h, MaxFaults: fig6MaxFaults(c.full), Step: 10, Budget: c.budget, Seed: c.seed, Workers: c.workers,
				})
				// A fault sequence that disconnects the network comes back as
				// the rows gathered up to there AND an error: the rows are
				// printed and exported before the error ends the figure.
				if emit && len(rows) > 0 {
					fmt.Print(experiments.RenderFig6(fmt.Sprintf("Figure 6: %s under random failures", h), rows))
					hd, crows := experiments.Fig6CSV(rows)
					if err := c.save(fmt.Sprintf("fig6-%dd", h.NDims()), hd, crows); err != nil {
						return err
					}
				}
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig7", false, func(c figCtx, emit bool) error {
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
		{"fig8", true, func(c figCtx, emit bool) error {
			rows, err := experiments.Shapes(experiments.ShapesConfig{
				H: c.h2, Budget: c.budget, Seed: c.seed, Root: c.root2, Workers: c.workers,
			})
			if err != nil || !emit {
				return err
			}
			fmt.Print(experiments.RenderShapes(fmt.Sprintf("Figure 8: %s under fault shapes (root %d)", c.h2, c.root2), rows))
			hd, crows := experiments.ShapesCSV(rows)
			return c.save("fig8", hd, crows)
		}},
		{"fig9", true, func(c figCtx, emit bool) error {
			rows, err := experiments.Shapes(experiments.ShapesConfig{
				H: c.h3, Budget: c.budget, Seed: c.seed, Root: c.root3, Workers: c.workers,
			})
			if err != nil || !emit {
				return err
			}
			fmt.Print(experiments.RenderShapes(fmt.Sprintf("Figure 9: %s under fault shapes (root %d)", c.h3, c.root3), rows))
			hd, crows := experiments.ShapesCSV(rows)
			return c.save("fig9", hd, crows)
		}},
		{"fig10", true, func(c figCtx, emit bool) error {
			results, err := experiments.Fig10(experiments.Fig10Config{
				H: c.h3, BurstPhits: fig10BurstPhits(c.full), Seed: c.seed, Root: c.root3, Workers: c.workers,
			})
			if err != nil || !emit {
				return err
			}
			fmt.Print(experiments.RenderFig10(
				fmt.Sprintf("Figure 10: completion time, RPN + Star faults on %s", c.h3), results))
			hd, crows := experiments.Fig10CSV(results)
			return c.save("fig10", hd, crows)
		}},
		{"section7", true, func(c figCtx, emit bool) error {
			rows, err := experiments.Section7(c.seed, c.budget, c.workers)
			if err != nil || !emit {
				return err
			}
			fmt.Print(experiments.RenderSection7(rows))
			hd, crows := experiments.Section7CSV(rows)
			return c.save("section7", hd, crows)
		}},
		{"recovery", true, func(c figCtx, emit bool) error {
			results, err := experiments.Recovery(experiments.RecoveryConfig{
				H: c.h3, Seed: c.seed, Root: c.root3, Workers: c.workers,
			})
			if err != nil || !emit {
				return err
			}
			fmt.Print(experiments.RenderRecovery(
				fmt.Sprintf("Extension: live link failures with BFS table rebuild on %s", c.h3), results))
			hd, crows := experiments.RecoveryCSV(results)
			return c.save("recovery", hd, crows)
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
	poisonAttempts := flag.Int("poison-attempts", queue.DefaultPoisonAttempts, "serve mode: quarantine a job after it costs this many distinct workers; the grid completes around the hole")
	heartbeat := flag.Duration("heartbeat", 0, "serve mode: worker heartbeat interval; a silent worker is severed after four missed intervals (0 = library default)")
	leaseBase := flag.Duration("lease-base", 0, "serve mode: base job lease before the per-cycle term; an expired lease requeues the job and fences the holder's late results (0 = library default)")
	leasePerCycle := flag.Duration("lease-per-cycle", 0, "serve mode: lease time added per simulated cycle of the job's budget (0 = library default)")
	csvDir := flag.String("csv-dir", "", "also write one CSV per figure/table into this directory (lossless floats, diffable)")
	jsonlDir := flag.String("jsonl-dir", "", "also write one JSONL file per figure/table into this directory (one schema-stable record per grid point, byte-stable on re-export)")
	var run cliutil.RunFlags // -seed, -workers, -run-workers, -cache-dir, -checkpoint-*, -mem-stats
	run.Register(flag.CommandLine)
	flag.Parse()

	// A worker needs no local checkpoint store: its snapshots stream to the
	// server.
	store, err := run.Apply(*workerAddr != "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	workers, seed := run.Workers, run.Seed

	if *workerAddr != "" {
		slots := experiments.DefaultWorkers(workers)
		experiments.SetGridWorkers(slots)
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
			experiments.RequestDrain()
			select {
			case <-sigc:
				fmt.Fprintln(os.Stderr, "worker: second signal, exiting now")
			case <-time.After(2 * time.Minute):
				fmt.Fprintln(os.Stderr, "worker: drain deadline exceeded, exiting")
			}
			os.Exit(1)
		}()
		fmt.Fprintf(os.Stderr, "worker: %d slots, connecting to %s\n", slots, *workerAddr)
		if err := queue.WorkLoop(*workerAddr, slots); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: worker: %v\n", err)
			os.Exit(1)
		}
		if experiments.DrainRequested() {
			fmt.Fprintln(os.Stderr, "worker: drained, exiting")
		} else {
			fmt.Fprintln(os.Stderr, "worker: server finished, exiting")
		}
		reportCache(store)
		return
	}
	if *serveAddr != "" {
		if store == nil {
			fmt.Fprintln(os.Stderr, "serve: no -cache-dir: grid journal disabled, a restarted server starts from scratch")
		}
		srv, err := queue.ServeWith(*serveAddr, queue.ServeOpts{
			Store:          store,
			PoisonAttempts: *poisonAttempts,
			Heartbeat:      *heartbeat,
			LeaseBase:      *leaseBase,
			LeasePerCycle:  *leasePerCycle,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		defer srv.Close()
		defer func() { fmt.Fprintf(os.Stderr, "serve: %s\n", srv.Stats().Summary()) }()
		experiments.SetExecutor(srv.Execute)
		fmt.Fprintf(os.Stderr, "serve: dispatching jobs on %s (start workers with -worker %s)\n",
			srv.Addr(), srv.Addr())
	}
	defer reportCache(store)
	if *progressFlag {
		p := &progressPrinter{}
		experiments.SetProgress(p.report)
	}

	if len(exps) == 0 {
		exps = multiFlag{"all"}
	}
	scale := experiments.ScaleSmall
	budget := experiments.DefaultBudget()
	if *full {
		scale = experiments.ScaleFull
		budget = experiments.PaperBudget()
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
			os.Exit(2)
		}
		want[e] = true
	}
	all := want["all"]

	h2 := experiments.Topology2D(scale)
	h3 := experiments.Topology3D(scale)
	ctx := figCtx{
		scale: scale, budget: budget, seed: seed, workers: workers, full: *full,
		h2: h2, h3: h3, root2: centerSwitch(h2), root3: centerSwitch(h3),
		save: tableSaver(*csvDir, *jsonlDir),
	}

	if run.MemStats {
		// Construction-only accounting for the grids the experiments run
		// on, printed up front on stderr (construction time is wall-clock;
		// stdout stays byte-identical across runs).
		for _, h := range []*topo.HyperX{h2, h3} {
			spec := experiments.JobSpec{
				Topo: experiments.HyperXSpec(h), Mechanism: "PolSP", Pattern: "Uniform",
				VCs: 2 * h.NDims(), Per: h.Dims()[0], Load: 0.5, Seed: seed, PatternSeed: seed,
			}
			mem, err := spec.MeasureMemory()
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: mem-stats %s: %v\n", h, err)
				os.Exit(1)
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
			os.Exit(2)
		}
		if store == nil {
			fmt.Fprintln(os.Stderr, "experiments: -exp cache-gc requires -cache-dir")
			os.Exit(2)
		}
		if err := runCacheGC(store, registry, ctx); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cache-gc: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, fig := range registry {
		if !all && !want[fig.name] {
			continue
		}
		if err := fig.driver(ctx, true); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", fig.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
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
// subtrees and pre-versioning flat shards), then replays each simulating
// figure's spec enumeration in cache-probe mode — no simulation, no
// write-backs, no output — and reports the per-figure hit/miss tally,
// i.e. how much of a real run at the current flags (-full, -seed) would
// come from the cache. The probe walks the same figure registry the run()
// dispatch does, so it always enumerates exactly the specs a real run at
// the same flags would.
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

	experiments.SetProgress(nil)
	experiments.SetCacheProbe(true)
	defer experiments.SetCacheProbe(false)

	fmt.Printf("cache coverage at the current flags (graph-only experiments have no cacheable points):\n")
	var totalHits, totalMisses int64
	for _, fig := range registry {
		if !fig.simulates {
			continue
		}
		h0, m0 := store.Stats()
		if err := fig.driver(c, false); err != nil {
			return fmt.Errorf("%s: %w", fig.name, err)
		}
		h1, m1 := store.Stats()
		hits, misses := h1-h0, m1-m0
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

// reportCache prints the final hit/miss tally on stderr; the CI
// cache-determinism job greps it to assert a fully warmed second run.
// Entries whose stored checksum failed were re-simulated and healed in
// place; the suffix only appears when that happened.
func reportCache(store *cache.Store) {
	if store == nil {
		return
	}
	hits, misses := store.Stats()
	suffix := ""
	if healed := store.Healed(); healed > 0 {
		suffix = fmt.Sprintf(" (%d corrupt entries healed)", healed)
	}
	fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses%s\n", hits, misses, suffix)
}

// fig6MaxFaults and fig10BurstPhits are the per-scale knobs of the fault
// sweep and the completion-time experiment, shared by the registry's
// drivers in both run and probe modes.
func fig6MaxFaults(full bool) int {
	if full {
		return 100
	}
	return 40
}

func fig10BurstPhits(full bool) int {
	if full {
		return 8000 // the paper's 8000 phits per server
	}
	return 1600
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
