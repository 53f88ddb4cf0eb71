package exp

import (
	"strings"
	"testing"

	"mtp/internal/platform"
)

// TestRegistry: every -exp name binds a row with no cells, appears in the
// usage text, and `all` is the registry's members in the order mtpexp has
// always printed them.
func TestRegistry(t *testing.T) {
	usage := Names()
	for _, e := range registry {
		rows, err := ArgRows(e.name, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := Load(rows)
		if err != nil || len(jobs) != 1 || jobs[0].Exp != e.name || jobs[0].Label() != e.name {
			t.Errorf("%s: empty row loaded as %+v, %v", e.name, jobs, err)
		}
		if !strings.Contains(usage, "  "+e.name+" ") {
			t.Errorf("usage text lacks %s:\n%s", e.name, usage)
		}
	}
	rows, err := ArgRows("all", []string{"seed=7"})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Load(rows)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range jobs {
		got = append(got, j.Exp)
	}
	if want := "table1 fig1 fig2 fig3 fig5 fig6 failover offfail fig7 ext"; strings.Join(got, " ") != want {
		t.Errorf("all = %q, want %q", got, want)
	}
}

// TestLoadRunfile: a row is named by its exp cell or, without one, its name
// cell; what Load rejects carries the row's line.
func TestLoadRunfile(t *testing.T) {
	rows, err := platform.ParseRows([]byte("seed = 2\n\nname, exp\nfirst, fig1\nfig2,\n\nexp\next\n"))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Load(rows)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range jobs {
		got = append(got, j.Exp+"/"+j.Label())
	}
	if want := "fig1/first fig2/fig2 ext/ext"; strings.Join(got, " ") != want {
		t.Errorf("loaded %q, want %q", got, want)
	}
	if c := jobs[0].row.(*Fig1Config); c.Seed != 2 {
		t.Errorf("global seed not bound: %+v", c)
	}
	for in, want := range map[string]string{
		"exp, topo\nscale, foo\n":                   `runfile line 2: scale: unknown topo "foo" (want leafspine, fattree)`,
		"exp\n\nname\nfig8\n":                       `runfile line 4: unknown experiment "fig8"`,
		"exp, seed\ntable1, 7\n":                    `runfile line 2: unknown key "seed"`,
		"shards = 2\n\nexp\nfig1\nfig2\n":           `runfile line 1: global "shards": no row has that key`,
		"exp, hosts\nscalesweep, 32:x:8\n":          `runfile line 2: hosts: "x" is not a valid int`,
		"exp, topo, k\nscale, fattree, 5\n":         `runfile line 2: k=5: a fat-tree radix is even and at least 2`,
		"exp, leaves\nscale, -2\n":                  `runfile line 2: leaves, spines and hostsperleaf must not be negative`,
		"exp, topo, ks\nscalesweep, fattree, 4:5\n": `runfile line 2: k=5: a fat-tree radix is even and at least 2`,
		"exp, hosts\nscalesweep, 32:-100\n":         `runfile line 2: hosts=-100: a host count must not be negative`,
	} {
		rows, err := platform.ParseRows([]byte(in))
		if err == nil {
			_, err = Load(rows)
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Load(%q) = %v, want an error containing %q", in, err, want)
		}
	}
}

// TestScaleWorkers: a scale row's own workers cell beats mtpexp's -parallel,
// which fills it otherwise; the result does not depend on either.
func TestScaleWorkers(t *testing.T) {
	rows, err := ArgRows("scale", []string{"leaves=2", "spines=1", "hostsperleaf=2", "msgsize=20000", "messages=1"})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Load(rows)
	if err != nil {
		t.Fatal(err)
	}
	one, two := jobs[0].Run(1), jobs[0].Run(2)
	if one.Text != two.Text || one.Tail == "" || one.Value.(ScaleResult).Config.Workers != 1 || two.Value.(ScaleResult).Config.Workers != 2 {
		t.Errorf("workers 1 and 2 differ or did not reach the config:\n%s%s", one.Text, two.Text)
	}
	jobs[0].row.(*ScaleConfig).Workers = 3
	if got := jobs[0].Run(1).Value.(ScaleResult).Config.Workers; got != 3 {
		t.Errorf("row's workers = 3 ran with %d", got)
	}
}
