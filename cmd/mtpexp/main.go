// Command mtpexp regenerates the paper's evaluation tables and figures on
// the built-in simulator. An experiment is a row — its name plus key=value
// cells, the keys being the lower-cased fields of the experiment's config
// struct — given on the command line or in a runfile (the grammar is in
// internal/platform's package comment):
//
//	mtpexp -exp all                                # run everything
//	mtpexp -exp fig5 samples=true                  # one figure, with the raw 32µs series
//	mtpexp -exp scale topo=fattree k=8 shards=4    # a row from the arguments
//	mtpexp -run ci/sim.run -only offfail           # rows from a file
//	mtpexp -run internal/exp/testdata/scale.run baseline=quic
//
// Flags go before the cells; after -run FILE the cells override the file's
// globals. Each experiment prints the rows/series the paper reports;
// EXPERIMENTS.md records how the shapes compare.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"mtp/internal/exp"
	"mtp/internal/platform"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, output and exit status as values: 2 for a
// command line or runfile that does not bind, 1 for a violated invariant.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtpexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("exp", "all", "experiment to run as one row, its cells following the flags")
		file     = fs.String("run", "", "run the rows of this runfile instead; cells following the flags override its globals")
		only     = fs.String("only", "", "with -run: only the rows with this name (or, unnamed, this exp)")
		parallel = fs.Int("parallel", 1, "sweep workers: 1 sequential, 0 = all CPUs, N fixed (results are identical regardless); capped so workers x shards <= GOMAXPROCS")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mtpexp [flags] -exp NAME [key=value ...]\n       mtpexp [flags] -run FILE [-only NAME] [key=value ...]\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "experiments (a key is a lower-cased field of the config struct in internal/exp):\n%s", exp.Names())
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	jobs, err := load(*name, *file, *only, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "mtpexp: %v\n", err)
		return 2
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
		defer func() {
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	status := 0
	for _, j := range jobs {
		r := j.Run(*parallel)
		for _, part := range []string{r.Head, r.Text, r.Tail} {
			if part != "" {
				fmt.Fprintln(stdout, part)
			}
		}
		if r.Failed {
			status = 1
		}
	}
	return status
}

// load turns the command line into bound, checked jobs: the rows of file
// with the cells over its globals, narrowed by only, or else the one row (for
// "all", the member rows) that name and the cells spell.
func load(name, file, only string, cells []string) ([]exp.Job, error) {
	if file == "" {
		rows, err := exp.ArgRows(name, cells)
		if err != nil {
			return nil, err
		}
		return exp.Load(rows)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	rows, err := platform.ParseRows(data)
	if err != nil {
		return nil, err
	}
	over, err := platform.ParseCells(cells)
	if err != nil {
		return nil, err
	}
	jobs, err := exp.Load(platform.Override(rows, over))
	if err != nil || only == "" {
		return jobs, err
	}
	var picked []exp.Job
	for _, j := range jobs {
		if j.Label() == only {
			picked = append(picked, j)
		}
	}
	if picked == nil {
		return nil, fmt.Errorf("%s has no row named %q", file, only)
	}
	return picked, nil
}
