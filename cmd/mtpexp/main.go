// Command mtpexp regenerates the paper's evaluation tables and figures on
// the built-in simulator.
//
// Usage:
//
//	mtpexp -exp all            # run everything
//	mtpexp -exp fig5 -samples  # one figure, with the raw 32µs series
//	mtpexp -exp table1 -v      # the feature matrix with per-cell evidence
//
// Each experiment prints the rows/series the paper reports; EXPERIMENTS.md
// records how the shapes compare.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mtp/internal/baseline"
	"mtp/internal/exp"
	"mtp/internal/scenario"
)

func main() {
	var (
		which    = flag.String("exp", "all", "experiment: all, fig1, fig2, fig3, fig5, fig6, fig7, failover, offfail, table1, ext, fig5sweep, fig6sweep, ccsweep, scale, scalesweep, scenario")
		duration = flag.Duration("duration", 0, "override simulated duration (fig2/3/5/7)")
		messages = flag.Int("messages", 0, "override message count (fig6) or per-sender messages (scale)")
		maxSize  = flag.Int("maxsize", 0, "override max message size in bytes (fig6)")
		samples  = flag.Bool("samples", false, "dump raw throughput series (fig5)")
		wl       = flag.String("workload", "", "fig6 workload: papermix (default) or websearch")

		topoName = flag.String("topo", "", "scale topology: leafspine (default) or fattree")
		leaves   = flag.Int("leaves", 0, "scale: leaf (ToR) switch count")
		spines   = flag.Int("spines", 0, "scale: spine switch count")
		perLeaf  = flag.Int("hostsperleaf", 0, "scale: hosts per leaf")
		radix    = flag.Int("k", 0, "scale: fat-tree radix (with -topo fattree)")
		pattern  = flag.String("pattern", "", "scale traffic: permutation (default), incast, shuffle")
		msgSize  = flag.Int("msgsize", 0, "scale: message size in bytes")
		rival    = flag.String("baseline", baseline.RivalNames()[0], "rival transport for failover/scale/scalesweep: "+strings.Join(baseline.RivalNames(), ", "))
		rivalRnd = flag.Bool("rival", false, "scenario: sample the rival baseline type per seed instead of always DCTCP")
		verbose  = flag.Bool("v", false, "verbose output (table1 evidence)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		chkOn    = flag.Bool("check", false, "run scale/failover under the protocol invariant harness (internal/check)")
		nScen    = flag.Int("scenarios", 1, "scenario: number of seeds to run, starting at -seed")
		faults   = flag.Int("faults", -1, "scenario: cap the sampled fault count (-1 = unlimited)")
		offOn    = flag.Bool("offload", false, "scenario: place a sampled in-network device (cache or IDS) on the fabric")
		parallel = flag.Int("parallel", 1, "sweep workers: 1 sequential, 0 = all CPUs, N fixed (results are identical regardless); capped so workers x shards <= GOMAXPROCS")
		shards   = flag.Int("shards", 1, "scale/scalesweep: split the simulation across N parallel engines (clamped to pods for fattree, racks for leafspine); results are bit-identical to -shards 1")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	// Values that select code by name are checked here, before any experiment
	// runs: deeper down an unknown name is a programming error and panics.
	for _, err := range []error{
		oneOf("topo", *topoName, exp.ScaleTopos),
		oneOf("pattern", *pattern, exp.ScalePatterns),
		oneOf("baseline", *rival, baseline.RivalNames()),
	} {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	run := func(name string) bool { return *which == "all" || *which == name }
	ran := false

	if run("table1") {
		ran = true
		r := exp.RunTable1Workers(*parallel)
		if *verbose {
			fmt.Println(r.Verbose())
		} else {
			fmt.Println(r.String())
		}
	}
	if run("fig1") {
		ran = true
		r := exp.RunFig1(exp.Fig1Config{Seed: *seed})
		fmt.Println(r.String())
	}
	if run("fig2") {
		ran = true
		r := exp.RunFig2(exp.Fig2Config{Duration: *duration, Seed: *seed})
		fmt.Println(r.String())
	}
	if run("fig3") {
		ran = true
		r := exp.RunFig3(exp.Fig3Config{Duration: *duration, Outstanding: 1, Seed: *seed})
		fmt.Println(r.String())
	}
	if run("fig5") {
		ran = true
		r := exp.RunFig5(exp.Fig5Config{Duration: *duration, Seed: *seed})
		fmt.Println(r.String())
		if *samples {
			fmt.Println(r.Samples())
		}
	}
	if *which == "fig5sweep" {
		ran = true
		fmt.Println(exp.SweepString(exp.RunFig5PeriodSweep(*parallel, nil, *duration, *seed)))
	}
	if *which == "ccsweep" {
		ran = true
		fmt.Println(exp.CCSweepString(exp.RunFig5CCSweep(*parallel, nil, *duration, *seed)))
	}
	if run("fig6") {
		ran = true
		d := exp.Fig6Config{Messages: *messages, MaxMsgSize: *maxSize, Seed: *seed, Workload: *wl}
		if *duration > 0 {
			d.Timeout = *duration
		}
		r := exp.RunFig6(d)
		fmt.Println(r.String())
	}
	if *which == "fig6sweep" {
		ran = true
		fmt.Println(exp.LoadSweepString(exp.RunFig6LoadSweep(*parallel, nil, *messages, *maxSize, *seed)))
	}
	if run("failover") {
		ran = true
		fr := exp.FailoverConfig{Seed: *seed, Check: *chkOn, Baseline: *rival}
		if *duration > 0 {
			fr.Duration = *duration
		}
		r := exp.RunFailover(fr)
		fmt.Println(r.String())
		if *samples {
			fmt.Println(r.Samples())
		}
	}
	if run("offfail") {
		ran = true
		oc := exp.OffFailConfig{Seed: *seed, Check: *chkOn}
		if *duration > 0 {
			oc.Duration = *duration
		}
		r := exp.RunOffFail(oc)
		fmt.Println(r.String())
	}
	if run("fig7") {
		ran = true
		r := exp.RunFig7(exp.Fig7Config{Duration: *duration, Seed: *seed})
		fmt.Println(r.String())
	}
	// The at-scale fabric runs are explicit-only (like the sweeps): 128-host
	// fabrics are a step up in runtime from the paper figures.
	scaleCfg := exp.ScaleConfig{
		Topo: *topoName, Leaves: *leaves, Spines: *spines, HostsPerLeaf: *perLeaf,
		K: *radix, Pattern: *pattern, MsgSize: *msgSize, Messages: *messages,
		Seed: *seed, Workers: *parallel, Shards: *shards, Check: *chkOn,
		Baseline: *rival,
	}
	if *duration > 0 {
		scaleCfg.Timeout = *duration
	}
	if *which == "scale" {
		ran = true
		r := exp.RunScale(scaleCfg)
		fmt.Println(r.String())
		fmt.Println(r.PerfString())
	}
	if *which == "scalesweep" {
		ran = true
		if *topoName == "fattree" {
			// Radix sweep doubling from 4 up to the -k flag (default ladder
			// when -k is unset).
			var ks []int
			if scaleCfg.K > 0 {
				for k := 4; k <= scaleCfg.K; k *= 2 {
					ks = append(ks, k)
				}
				if len(ks) == 0 || ks[len(ks)-1] != scaleCfg.K {
					ks = append(ks, scaleCfg.K)
				}
			}
			fmt.Println(exp.ScaleKSweepString(exp.RunScaleKSweep(*parallel, ks, scaleCfg)))
		} else {
			fmt.Println(exp.ScaleSweepString(exp.RunScaleHostSweep(*parallel, nil, scaleCfg)))
		}
	}
	// Seeded random scenarios under the invariant harness (internal/scenario):
	// run -scenarios seeds starting at -seed; any violating seed is shrunk to
	// a minimal repro and the exit status is non-zero. The topology/size flags
	// act as caps on the sampled dimensions, so a shrunken repro line replays
	// exactly.
	if *which == "scenario" {
		ran = true
		ov := scenario.Overrides{
			Topo: *topoName, Leaves: *leaves, Spines: *spines, HostsPerLeaf: *perLeaf,
			Messages: *messages, MaxFaults: *faults, Horizon: *duration,
			Offload: *offOn, Rival: *rivalRnd,
		}
		failed := false
		for s := *seed; s < *seed+int64(*nScen); s++ {
			r := scenario.Run(s, ov)
			if r.Count == 0 {
				if *nScen == 1 {
					fmt.Print(r.String())
				} else {
					fmt.Printf("scenario seed=%d: ok (%d/%d delivered, %d events)\n",
						s, r.Delivered, r.Expected, r.Events)
				}
				continue
			}
			failed = true
			min, res := scenario.Shrink(s, ov)
			fmt.Print(res.String())
			fmt.Printf("shrunken repro: %s\n", scenario.ReproLine(s, min))
		}
		if failed {
			os.Exit(1)
		}
	}
	if run("ext") {
		ran = true
		fmt.Println("Extensions (Section 4 design points, measured):")
		fmt.Println(exp.ExtensionsSummary())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		flag.Usage()
		os.Exit(2)
	}
}

// oneOf rejects a flag value outside its accepted set; the empty value (the
// experiment's default) always passes.
func oneOf(name, value string, accepted []string) error {
	if value == "" {
		return nil
	}
	for _, a := range accepted {
		if value == a {
			return nil
		}
	}
	return fmt.Errorf("unknown -%s %q (want %s)", name, value, strings.Join(accepted, ", "))
}
