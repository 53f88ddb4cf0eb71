package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtp/internal/platform"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output (make golden)")

// checkGolden compares got with testdata/<name>.golden byte for byte; with
// -update it rewrites the file instead.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `make golden` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from its golden:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// goldenRun is one run of a testdata runfile: its jobs and what each printed.
type goldenRun struct {
	jobs    []Job
	results []Result
}

// goldenRuns memoizes runRunfile, so the shape tests assert on the very
// results the goldens render instead of repeating the expensive runs.
var goldenRuns = map[string]goldenRun{}

// runRunfile runs the rows of testdata/<file>, cells overriding its globals,
// as `mtpexp -run testdata/<file> cells...` would.
func runRunfile(t *testing.T, file string, cells ...string) goldenRun {
	t.Helper()
	key := file + " " + strings.Join(cells, " ")
	if run, ok := goldenRuns[key]; ok {
		return run
	}
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := platform.ParseRows(data)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	over, err := platform.ParseCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	var run goldenRun
	if run.jobs, err = Load(platform.Override(rows, over)); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	for _, j := range run.jobs {
		run.results = append(run.results, j.Run(1))
	}
	goldenRuns[key] = run
	return run
}

// text renders the run as its golden holds it: each row's Text, under a
// "## name" heading when the row has a name.
func (run goldenRun) text() string {
	var b strings.Builder
	for i, j := range run.jobs {
		if j.Name != "" {
			fmt.Fprintf(&b, "## %s\n", j.Name)
		}
		b.WriteString(run.results[i].Text)
	}
	return b.String()
}

// goldenFailover is failover.run's result against one rival, and goldenTable1
// table1.run's: the package's two expensive runs.
func goldenFailover(t *testing.T, rival string) FailoverResult {
	return runRunfile(t, "failover.run", "baseline="+rival).results[0].Value.(FailoverResult)
}

func goldenTable1(t *testing.T) Table1Result {
	return runRunfile(t, "table1.run").results[0].Value.(Table1Result)
}

// TestGolden pins the rendered result of every experiment mtpexp can print,
// byte for byte. Each case is a checked-in runfile, testdata/<name>.run, so a
// golden is reproduced by the text a user would hand `mtpexp -run`. The files
// are the behaviour of the commit that added them; a refactor must leave them
// untouched.
func TestGolden(t *testing.T) {
	type goldenCase struct {
		name, file string
		cells      []string
	}
	var cases []goldenCase
	for _, name := range []string{"table1", "ext", "fig1", "fig2", "fig3", "fig5", "fig5_singlepathlet",
		"fig5_sweeps", "fig6", "fig7", "offfail", "failover_early", "scale_sweep", "scale_horizon"} {
		cases = append(cases, goldenCase{name: name, file: name + ".run"})
	}
	for _, b := range allBaselines {
		cases = append(cases,
			goldenCase{"scale_" + b, "scale.run", []string{"baseline=" + b}},
			goldenCase{"failover_" + b, "failover.run", []string{"baseline=" + b}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, tc.name, runRunfile(t, tc.file, tc.cells...).text()) })
	}
}
