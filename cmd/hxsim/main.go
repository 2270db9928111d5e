// Command hxsim runs a single HyperX simulation and prints its metrics:
// the direct line into the simulator for ad-hoc studies.
//
// Examples:
//
//	hxsim -dims 8x8 -mech PolSP -pattern Uniform -load 0.7
//	hxsim -dims 8x8x8 -mech OmniSP -pattern RPN -load 1.0 -faults 50
//	hxsim -dims 4x4x4 -mech PolSP -pattern RPN -burst 100 -shape cross
//	hxsim -dims 8x8 -mech PolSP -loads 0.1,0.5,1.0 -cache-dir ~/.hxcache
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	hyperx "repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		dimsFlag    = flag.String("dims", "8x8", "topology sides, e.g. 16x16 or 8x8x8")
		mechFlag    = flag.String("mech", "PolSP", "mechanism: Minimal|Valiant|OmniWAR|Polarized|DOR|DAL|EscapeOnly|OmniSP|PolSP")
		patFlag     = flag.String("pattern", "Uniform", "pattern: Uniform|RSP|DCR|RPN")
		loadFlag    = flag.Float64("load", 0.5, "offered load in phits/server/cycle (0,1]")
		loadsFlag   = flag.String("loads", "", "comma-separated load sweep, e.g. 0.1,0.5,1.0 (overrides -load)")
		vcsFlag     = flag.Int("vcs", 0, "virtual channels per port (0 = paper's 2n)")
		warmFlag    = flag.Int64("warmup", 3000, "warmup cycles")
		measFlag    = flag.Int64("measure", 6000, "measurement cycles")
		faultsFlag  = flag.Int("faults", 0, "random link failures to inject")
		shapeFlag   = flag.String("shape", "", "structured fault shape: row|subblock|cross (overrides -faults)")
		rootFlag    = flag.Int("root", 0, "escape subnetwork root switch (SurePath)")
		burstFlag   = flag.Int("burst", 0, "burst packets per server (completion-time mode)")
		serversFlag = flag.Int("servers", 0, "servers per switch (0 = side k)")
	)
	var run cliutil.RunFlags // -seed, -workers, -run-workers, -cache-dir, -checkpoint-*, -mem-stats, -cpuprofile, -trace
	run.Register(flag.CommandLine)
	flag.Parse()

	// Every exit flushes the -cpuprofile and -trace files: check and the
	// drain's exit 3 stop them before os.Exit, a normal return by the defer.
	stopProfile := func() {}
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "hxsim:", err)
			stopProfile()
			os.Exit(1)
		}
	}
	stop, err := run.StartProfiles()
	check(err)
	stopProfile = stop
	defer stopProfile()

	r, err := run.Apply(false)
	check(err)
	if run.Checkpointing() {
		// SIGINT/SIGTERM becomes a drain: every in-flight point snapshots
		// at its next inter-cycle boundary and the run stops resumable.
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "hxsim: interrupted, checkpointing")
			r.Drain.Store(true)
		}()
	}

	dims, err := cliutil.ParseDims(*dimsFlag)
	check(err)
	h, err := hyperx.NewTopology(dims...)
	check(err)
	per := *serversFlag
	if per == 0 {
		per = dims[0]
	}

	faults := hyperx.NewFaultSet()
	switch {
	case *shapeFlag != "":
		kind, err := cliutil.ParseShape(*shapeFlag)
		check(err)
		edges, err := hyperx.PaperShape(h, int32(*rootFlag), kind)
		check(err)
		faults.AddAll(edges)
	case *faultsFlag > 0:
		seq := hyperx.RandomFaultSequence(h, run.Seed)
		if *faultsFlag > len(seq) {
			check(fmt.Errorf("at most %d links can fail", len(seq)))
		}
		faults.AddAll(seq[:*faultsFlag])
	}
	net := hyperx.NewNetwork(h, faults)
	if !net.Graph().Connected() {
		check(fmt.Errorf("the chosen faults disconnect the network"))
	}

	vcs := *vcsFlag
	if vcs == 0 {
		vcs = 2 * h.NDims()
	}
	mech, err := hyperx.NewMechanism(*mechFlag, net, vcs, int32(*rootFlag))
	check(err)
	pat, err := hyperx.NewPattern(*patFlag, h, per, run.Seed)
	check(err)

	fmt.Printf("%s  servers/switch=%d  faults=%d  mech=%s  pattern=%s  vcs=%d\n",
		h, per, faults.Len(), mech.Name(), pat.Name(), vcs)

	loads := []float64{*loadFlag}
	if *loadsFlag != "" {
		loads, err = cliutil.ParseLoads(*loadsFlag)
		check(err)
	}
	if *burstFlag > 0 {
		loads = loads[:1] // burst mode ignores load: one completion-time run
	}
	// Each load point is an independent job spec: rebuilt privately per
	// run, so the sweep parallelizes (identical rows for any -workers
	// value) and points are content-addressable for -cache-dir.
	shape, err := hyperx.TopologySpecOf(h)
	check(err)
	specs := make([]hyperx.JobSpec, len(loads))
	for i, load := range loads {
		specs[i] = hyperx.JobSpec{
			Topo: shape, Mechanism: *mechFlag, Pattern: *patFlag,
			VCs: vcs, Root: int32(*rootFlag), Per: per,
			Load:        load,
			Budget:      hyperx.Budget{Warmup: *warmFlag, Measure: *measFlag},
			Faults:      faults.Edges(),
			Seed:        run.Seed,
			PatternSeed: run.Seed,
		}
		if *burstFlag > 0 {
			specs[i].BurstPackets = *burstFlag
			specs[i].SeriesBucket = 2000
		}
	}
	if run.MemStats {
		// Construction is load-independent, so one measurement covers the
		// whole sweep. Stderr, like the cache stats: stdout stays
		// byte-identical across runs (construction time is wall-clock).
		mem, err := r.MeasureMemory(&specs[0])
		check(err)
		fmt.Fprintln(os.Stderr, mem)
	}
	results, err := hyperx.RunSpecs(r, specs)
	if errors.Is(err, hyperx.ErrCheckpointed) {
		fmt.Fprintln(os.Stderr, "hxsim: checkpointed; rerun the same command to resume")
		stopProfile()
		os.Exit(3)
	}
	check(err)
	cliutil.ReportCache(os.Stderr, r.Cache)
	for i, load := range loads {
		res := results[i]
		if *burstFlag > 0 {
			fmt.Printf("completion time     %d cycles\n", res.CompletionTime)
			for _, p := range res.Series {
				fmt.Printf("  t=%-8d accepted=%.3f\n", p.Cycle, p.Accepted)
			}
			return
		}
		if len(loads) > 1 {
			fmt.Printf("load %.2f: accepted %.3f  latency %.1f  jain %.4f  escape %.4f  util %.3f\n",
				load, res.AcceptedLoad, res.AvgLatency, res.JainIndex, res.EscapeFraction, res.LinkUtilization)
			continue
		}
		fmt.Printf("offered load        %.3f phits/server/cycle\n", res.OfferedLoad)
		fmt.Printf("accepted load       %.3f phits/server/cycle\n", res.AcceptedLoad)
		fmt.Printf("avg message latency %.1f cycles\n", res.AvgLatency)
		fmt.Printf("avg hops            %.2f\n", res.AvgHops)
		fmt.Printf("Jain index          %.4f\n", res.JainIndex)
		fmt.Printf("escape fraction     %.4f\n", res.EscapeFraction)
		fmt.Printf("link utilization    %.3f\n", res.LinkUtilization)
		fmt.Printf("delivered packets   %d\n", res.DeliveredPackets)
	}
}
