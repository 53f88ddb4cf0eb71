package exp

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/cc"
	"mtp/internal/platform"
	"mtp/internal/scenario"
)

// Result is what one row printed. mtpexp prints Head, Text and Tail, each
// followed by a newline; the goldens pin Text alone.
type Result struct {
	Head   string // a title only the command line shows
	Text   string // the rendered experiment
	Tail   string // wall-clock lines, which no golden can hold
	Failed bool   // an invariant was violated: mtpexp exits 1
	Value  any    // the experiment's own result struct, where it has one
}

func rendered[R fmt.Stringer](r R) Result { return Result{Text: r.String(), Value: r} }

// A row is what an experiment's cells bind onto — its lower-cased field names
// are the keys — and how that configuration runs; workers is mtpexp's
// -parallel. The figures' rows are their config structs; the others add an
// output switch, or hold a sweep's point list (a ':'-joined cell; empty is
// the sweep's default ladder).
type row interface{ run(workers int) Result }

type (
	table1Row struct{ Verbose bool }
	fig5Row   struct {
		Fig5Config
		Samples bool
	}
	failoverRow struct {
		FailoverConfig
		Samples bool
	}
	fig5SweepRow struct {
		Periods  []time.Duration
		Duration time.Duration
		Seed     int64
	}
	ccSweepRow struct {
		Kinds    []cc.Kind
		Duration time.Duration
		Seed     int64
	}
	fig6SweepRow struct {
		Loads                []float64
		Messages, MaxMsgSize int
		Seed                 int64
	}
	// scaleSweepRow sweeps Hosts on a leaf-spine, the radices Ks on a fat-tree.
	scaleSweepRow struct {
		ScaleConfig
		Hosts, Ks []int
	}
	scenarioRow struct{ scenario.Row }
	extRow      struct{}
)

func (c Fig1Config) run(int) Result    { return rendered(RunFig1(c)) }
func (c Fig2Config) run(int) Result    { return rendered(RunFig2(c)) }
func (c Fig3Config) run(int) Result    { return rendered(RunFig3(c)) }
func (c Fig6Config) run(int) Result    { return rendered(RunFig6(c)) }
func (c Fig7Config) run(int) Result    { return rendered(RunFig7(c)) }
func (c OffFailConfig) run(int) Result { return rendered(RunOffFail(c)) }

func (c table1Row) run(workers int) Result {
	r := RunTable1(workers)
	if c.Verbose {
		return Result{Text: r.Verbose(), Value: r}
	}
	return rendered(r)
}

func (c fig5Row) run(int) Result {
	r := RunFig5(c.Fig5Config)
	return withSamples(rendered(r), c.Samples, r.Samples)
}

func (c failoverRow) run(int) Result {
	r := RunFailover(c.FailoverConfig)
	return withSamples(rendered(r), c.Samples, r.Samples)
}

// withSamples appends the raw series under the rendered result.
func withSamples(r Result, on bool, samples func() string) Result {
	if on {
		r.Text += "\n" + samples()
	}
	return r
}

func (c fig5SweepRow) run(workers int) Result {
	return Result{Text: SweepString(RunFig5PeriodSweep(workers, c.Periods, c.Duration, c.Seed))}
}

func (c ccSweepRow) run(workers int) Result {
	return Result{Text: CCSweepString(RunFig5CCSweep(workers, c.Kinds, c.Duration, c.Seed))}
}

func (c fig6SweepRow) run(workers int) Result {
	return Result{Text: LoadSweepString(RunFig6LoadSweep(workers, c.Loads, c.Messages, c.MaxMsgSize, c.Seed))}
}

// A scale row's own workers cell beats -parallel; the result depends on
// neither.
func (c ScaleConfig) run(workers int) Result {
	if c.Workers == 0 {
		c.Workers = workers
	}
	r := RunScale(c)
	return Result{Text: r.String(), Tail: r.PerfString(), Value: r}
}

func (c scaleSweepRow) run(workers int) Result {
	if c.Topo == "fattree" {
		return Result{Text: ScaleKSweepString(RunScaleKSweep(workers, c.Ks, c.ScaleConfig))}
	}
	return Result{Text: ScaleSweepString(RunScaleHostSweep(workers, c.Hosts, c.ScaleConfig))}
}

// check refuses a fabric shape no builder makes (zero picks the default).
func (c ScaleConfig) check() error {
	if c.K != 0 && (c.K < 2 || c.K%2 != 0) {
		return fmt.Errorf("k=%d: a fat-tree radix is even and at least 2", c.K)
	}
	if c.Leaves < 0 || c.Spines < 0 || c.HostsPerLeaf < 0 {
		return fmt.Errorf("leaves, spines and hostsperleaf must not be negative")
	}
	return nil
}

func (c scaleSweepRow) check() error {
	if fat := c.Topo == "fattree"; c.K != 0 || (fat && c.Hosts != nil) || (!fat && c.Ks != nil) {
		return fmt.Errorf("scalesweep sweeps hosts= on a leaf-spine and ks= with topo=fattree; k= is the point's")
	}
	for _, k := range c.Ks {
		pt := c.ScaleConfig
		pt.K = k
		if err := pt.check(); err != nil {
			return err
		}
	}
	for _, n := range c.Hosts {
		if n < 0 {
			return fmt.Errorf("hosts=%d: a host count must not be negative", n)
		}
	}
	return c.ScaleConfig.check()
}

func (c scenarioRow) run(int) Result {
	text, failed := scenario.RunRow(c.Row)
	return Result{Text: strings.TrimSuffix(text, "\n"), Failed: failed}
}

func (extRow) run(int) Result {
	return Result{Head: "Extensions (Section 4 design points, measured):", Text: ExtensionsSummary()}
}

// registry is every -exp name with the row its cells bind onto, at the
// command line's defaults, in the order `-exp all` runs its members. The
// at-scale fabric runs, the sweeps and the scenarios are explicit-only: a step
// up in runtime from the paper's figures.
var registry = []struct {
	name  string
	inAll bool
	doc   string
	new   func() row
}{
	{"table1", true, "the feature matrix; verbose=true adds per-cell evidence", func() row { return new(table1Row) }},
	{"fig1", true, "L7 load balancing and in-network caching", func() row { return new(Fig1Config) }},
	{"fig2", true, "termination proxy: buffering vs HOL blocking", func() row { return new(Fig2Config) }},
	{"fig3", true, "one message per flow breaks CC", func() row { return &Fig3Config{Outstanding: 1} }},
	{"fig5", true, "multipath CC under path alternation; samples=true dumps the 32us series", func() row { return new(fig5Row) }},
	{"fig5sweep", false, "fig5 over alternation periods=", func() row { return new(fig5SweepRow) }},
	{"ccsweep", false, "fig5 over per-pathlet CC kinds=", func() row { return new(ccSweepRow) }},
	{"fig6", true, "load- and request-aware load balancing", func() row { return new(Fig6Config) }},
	{"fig6sweep", false, "fig6 p99 over offered loads=", func() row { return new(fig6SweepRow) }},
	{"failover", true, "pathlet failure recovery against baseline=", func() row { return new(failoverRow) }},
	{"offfail", true, "in-network aggregator crash and host-side fallback", func() row { return new(OffFailConfig) }},
	{"fig7", true, "per-entity isolation", func() row { return new(Fig7Config) }},
	{"scale", false, "MTP against baseline= on a leaf-spine or fat-tree fabric", func() row { return new(ScaleConfig) }},
	{"scalesweep", false, "scale over hosts=, or over radices ks= with topo=fattree", func() row { return new(scaleSweepRow) }},
	{"scenario", false, "seeded random scenarios under the invariant harness, shrunk on a violation", func() row { return &scenarioRow{scenario.NewRow()} }},
	{"ext", true, "the Section 4 design points", func() row { return new(extRow) }},
}

// accepted lists, per key, the values that select code by name: deeper down
// an unknown one is a programming error and panics, so Load turns it away.
var accepted = map[string][]string{
	"topo":     ScaleTopos,
	"pattern":  ScalePatterns,
	"baseline": baseline.RivalNames(),
	"workload": {"papermix", "websearch"},
	"mtpcc":    ccKinds,
	"kinds":    ccKinds,
}

var ccKinds = []string{string(cc.KindDCTCP), string(cc.KindAIMD), string(cc.KindRCP), string(cc.KindSwift), string(cc.KindDCQCN)}

// Names lists the registered -exp names, each with its one-line description
// and the keys its rows take, for mtpexp's usage text.
func Names() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-11s every experiment marked *\n", "all")
	for _, e := range registry {
		star, keys := " ", "none"
		if e.inAll {
			star = "*"
		}
		if k := platform.Keys(e.new()); len(k) > 0 {
			keys = strings.Join(k, " ")
		}
		fmt.Fprintf(&b, "  %-10s%s %s\n  %-11s keys: %s\n", e.name, star, e.doc, "", keys)
	}
	return b.String()
}

// ArgRows spells `mtpexp -exp name cells...` as rows: one row of those cells,
// or for "all" one row per member with the cells as the globals they share.
func ArgRows(name string, args []string) ([]platform.Row, error) {
	cells, err := platform.ParseCells(args)
	if err != nil {
		return nil, err
	}
	if name != "all" {
		return []platform.Row{{Cells: append([]platform.Cell{{Key: "exp", Value: name}}, cells...)}}, nil
	}
	var rows []platform.Row
	for _, e := range registry {
		if e.inAll {
			rows = append(rows, platform.Row{Globals: cells, Cells: []platform.Cell{{Key: "exp", Value: e.name}}})
		}
	}
	return rows, nil
}

// Job is one bound, checked row. Exp is its registry name and Name its name
// cell ("" without one).
type Job struct {
	Exp, Name string
	row       row
}

// Label is what -only matches: the row's name, or without one its experiment.
func (j Job) Label() string {
	if j.Name != "" {
		return j.Name
	}
	return j.Exp
}

// Run runs the job; workers is the fan-out a sweep may use (results do not
// depend on it).
func (j Job) Run(workers int) Result { return j.row.run(workers) }

// Load binds every row onto its experiment's struct — named by the exp cell
// or, without one, the name cell — and checks the values that select code by
// name, so that nothing runs when any row is wrong.
func Load(rows []platform.Row) ([]Job, error) {
	jobs := make([]Job, len(rows))
	err := platform.BindRows(rows, func(i int, r platform.Row) ([]any, error) {
		j := &jobs[i]
		if j.Exp = r.Get("exp"); j.Exp == "" {
			j.Exp = r.Get("name")
		}
		var names []string
		for _, e := range registry {
			if e.name == j.Exp {
				j.row = e.new()
				return []any{j, j.row}, nil // j takes the exp and name cells
			}
			names = append(names, e.name)
		}
		return nil, fmt.Errorf("unknown experiment %q (want %s; -exp also takes all)", j.Exp, strings.Join(names, ", "))
	})
	for i := 0; err == nil && i < len(rows); i++ {
		err = rows[i].Err(checkRow(rows[i], jobs[i]))
	}
	return jobs, err
}

// checkRow is what binding cannot see: a value outside its key's accepted set,
// and a row's own consistency rule.
func checkRow(r platform.Row, j Job) error {
	for _, key := range platform.Keys(j.row) {
		for _, v := range strings.Split(r.Get(key), ":") {
			if set := accepted[key]; set != nil && v != "" && !slices.Contains(set, v) {
				return fmt.Errorf("%s: unknown %s %q (want %s)", j.Exp, key, v, strings.Join(set, ", "))
			}
		}
	}
	if c, ok := j.row.(interface{ check() error }); ok {
		return c.check()
	}
	return nil
}
