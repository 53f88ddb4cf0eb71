// Command bench is the repository's one benchmark. It drives every layer from
// outside, through public functions only, over six named workloads, and
// prints every metric in BENCHMARK.json by name with its unit. See README.md.
//
//	bash bench/run.sh                                   # all workloads, untraced
//	bash bench/run.sh -trace 1                          # per-layer ladder + traced workloads
//	bash bench/run.sh -workload small_udp -seed 2       # one workload
//	bash bench/run.sh -compare A.json B.json            # two sets against the bounds
//
// Loopback only: link rate and wire latency are not measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var procStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	home     string
	out      string
	record   bool
	quick    bool
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all six)")
	fs.Int64Var(&o.seed, "seed", 1, "seeds payload bytes, udpnet.Lossy and ScaleConfig.Seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measuring time per workload, split into 25 repetitions")
	fs.IntVar(&o.trace, "trace", 0, "1: run the per-layer ladder and the traced workloads instead of the end-to-end run")
	fs.StringVar(&o.home, "home", ".", "the bench directory (holds out/ and history.jsonl)")
	fs.StringVar(&o.out, "o", "", "write the set of results here (default <home>/out/set.json, or set-trace.json)")
	fs.BoolVar(&o.record, "record", false, "append this run's end-to-end medians to <home>/history.jsonl")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	fs.BoolVar(&o.quick, "quick", false, "shrink warm-up and ladder sizes (for tests; numbers are not comparable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareSets(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		return 2
	}

	defs := workloads
	if o.workload != "" {
		def := workloadByName(o.workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		defs = []workloadDef{*def}
	}
	set, err := measure(stdout, defs, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := set.write(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.workload != "" {
		// The driver's contract: the last line of standard output is one JSON
		// object for the one workload.
		printContractLine(stdout, set.Results[0], o.trace == 1)
	}
	for _, r := range set.Results {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// resultSet is one complete run: what -o writes and -compare reads.
type resultSet struct {
	Commit     string     `json:"commit"`
	Date       string     `json:"date"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Traced     bool       `json:"traced"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Results    []wlResult `json:"results"`
}

func measure(stdout io.Writer, defs []workloadDef, o options) (*resultSet, error) {
	b := newBudget(o.seconds, o.quick)
	set := &resultSet{
		Commit: gitCommit(o.home), Date: time.Now().UTC().Format(time.RFC3339),
		Seed: o.seed, Seconds: o.seconds, Traced: o.trace == 1, GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(stdout, "mtp bench: seed %d, %d repetitions of %v per workload, GOMAXPROCS %d, loopback only (link rate and wire latency are not measured)\n",
		o.seed, b.Reps, b.Rep, set.GOMAXPROCS)
	if o.trace == 1 {
		results, err := measureTraced(stdout, defs, o, b)
		set.Results = results
		return set, err
	}
	for i := range defs {
		r, err := runWorkload(&defs[i], o.seed, b)
		if err != nil {
			return nil, err
		}
		printWorkload(stdout, r, endToEnd)
		set.Results = append(set.Results, r)
	}
	return set, nil
}

func (s *resultSet) write(o options) error {
	path := o.out
	if path == "" {
		name := "set.json"
		if s.Traced {
			name = "set-trace.json"
		}
		path = filepath.Join(o.home, "out", name)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if o.record && !s.Traced {
		return s.record(filepath.Join(o.home, "history.jsonl"))
	}
	return nil
}

// record appends one line of end-to-end medians to the append-only history.
func (s *resultSet) record(path string) error {
	type line struct {
		Commit  string                        `json:"commit"`
		Date    string                        `json:"date"`
		Seed    int64                         `json:"seed"`
		Seconds float64                       `json:"seconds"`
		Medians map[string]map[string]float64 `json:"medians"`
	}
	l := line{Commit: s.Commit, Date: s.Date, Seed: s.Seed, Seconds: s.Seconds, Medians: map[string]map[string]float64{}}
	for _, r := range s.Results {
		m := map[string]float64{}
		for _, d := range endToEnd {
			m[d.Name] = r.Metrics[d.Name].Median
		}
		l.Medians[r.Workload] = m
	}
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func gitCommit(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printWorkload prints the listed metrics of one workload, one per line:
// name, median, unit, spread and sample count.
func printWorkload(w io.Writer, r wlResult, defs []metricDef) {
	fmt.Fprintf(w, "\n%s  (closed loop, W=%d; %d attempted, %d failed)\n", r.Workload, r.W, r.Attempted, r.Failed)
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-6s [min %.4f max %.4f n=%d]\n", d.Name, v.Median, d.Unit, v.Min, v.Max, v.N)
	}
}

// printContractLine prints {"correct","attempted","failed","metrics"} with
// every end-to-end metric (untraced) or every per-layer metric (traced).
func printContractLine(w io.Writer, r wlResult, traced bool) {
	type cell struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]cell, len(defs))
	for _, d := range defs {
		metrics[d.Name] = cell{Value: r.Metrics[d.Name].Median, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]cell `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}
