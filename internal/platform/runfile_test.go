package platform

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// bindTarget has one field of every kind the binder sets, shaped like the
// experiment rows: an embedded config beside the row's own switches.
type bindTarget struct {
	bindBase
	Verbose bool
	Periods []time.Duration
	Loads   []float64
	Hosts   []int
	Kinds   []bindKind
}

type bindBase struct {
	Topo     string
	Kind     bindKind
	K        int
	Seed     int64
	LineRate float64
	Timeout  time.Duration
	Port     uint16
	RTO      int `json:"rto_ms,omitempty"`
	hidden   int
}

type bindKind string

func TestParseRowsTables(t *testing.T) {
	rows, err := ParseRows([]byte(`
# two tables of different shapes under one globals block
Check = true      # keys are case-insensitive
seed = 3
seed = 4          # the last global wins

name, exp, topo
small, scale, leafspine   # a trailing comment
# a comment line does not end the table
big, scale,

Exp
table1
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rows), rows)
	}
	for i, want := range []struct {
		line                  int
		name, exp, topo, seed string
	}{
		{8, "small", "scale", "leafspine", "4"},
		{10, "big", "scale", "", "4"},
		{13, "", "table1", "", "4"},
	} {
		r := rows[i]
		if r.Line != want.line || r.Get("name") != want.name || r.Get("exp") != want.exp ||
			r.Get("topo") != want.topo || r.Get("seed") != want.seed || r.Get("check") != "true" {
			t.Errorf("row %d = %+v, want %+v", i, r, want)
		}
	}
}

func TestBindKinds(t *testing.T) {
	cells, err := ParseCells([]string{"topo=fattree", "kind=dcqcn", "k=8", "seed=-7", "linerate=50e9",
		"timeout=384us", "port=65535", "rto_ms=20", "verbose=true", "periods=48us:2ms", "loads=0.5:0.9",
		"hosts=32:64:128", "kinds=dctcp:swift", "NAME=a b=c"})
	if err != nil {
		t.Fatal(err)
	}
	var head struct{ Name string }
	var got bindTarget
	if err := Bind(Row{Cells: cells}, &head, &got); err != nil {
		t.Fatal(err)
	}
	want := bindTarget{
		bindBase: bindBase{Topo: "fattree", Kind: "dcqcn", K: 8, Seed: -7, LineRate: 50e9,
			Timeout: 384 * time.Microsecond, Port: 65535, RTO: 20},
		Verbose: true, Periods: []time.Duration{48 * time.Microsecond, 2 * time.Millisecond},
		Loads: []float64{0.5, 0.9}, Hosts: []int{32, 64, 128}, Kinds: []bindKind{"dctcp", "swift"},
	}
	if !reflect.DeepEqual(got, want) || head.Name != "a b=c" {
		t.Fatalf("bound %+v (name %q)\nwant  %+v", got, head.Name, want)
	}
}

func TestBindErrors(t *testing.T) {
	for _, tc := range []struct{ cell, want string }{
		{"bogus=1", `unknown key "bogus" (want one of hosts, k, kind, kinds, linerate, loads, periods, port, rto_ms, seed, timeout, topo, verbose)`},
		{"hidden=1", `unknown key "hidden"`},
		{"rto=1", `unknown key "rto"`},
		{"k=eight", `k: "eight" is not a valid int`},
		{"k=1.5", `k: "1.5" is not a valid int`},
		{"timeout=2", `timeout: "2" is not a valid time.Duration`},
		{"verbose=yes", `verbose: "yes" is not a valid bool`},
		{"linerate=fast", `linerate: "fast" is not a valid float64`},
		{"port=65536", `port: "65536" is not a valid uint16`},
		{"hosts=32:x", `hosts: "x" is not a valid int`},
		{"hosts=", `hosts: "" is not a valid int`},
	} {
		cells, err := ParseCells([]string{tc.cell})
		if err != nil {
			t.Fatal(err)
		}
		err = Bind(Row{Cells: cells}, &bindTarget{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Bind(%s) = %v, want an error containing %q", tc.cell, err, tc.want)
		}
	}
	for _, arg := range []string{"k", "=8", "-k=8", "-parallel"} {
		if _, err := ParseCells([]string{arg}); err == nil {
			t.Errorf("ParseCells(%q) accepted", arg)
		}
	}
}

// TestBindGlobals: a global is the default of the rows that have its key and
// is skipped by those that do not; a row's own cell beats it; an override
// beats the file's global but not the row's cell; a global no row can use is
// an error at its own line.
func TestBindGlobals(t *testing.T) {
	rows, err := ParseRows([]byte("k = 4\nverbose = true\n\nname, k\nplain, \nown, 16\n"))
	if err != nil {
		t.Fatal(err)
	}
	type withK struct{ K int }
	type withBoth struct {
		K       int
		Verbose bool
	}
	bind := func(rows []Row) (a withK, b withBoth, err error) {
		var name struct{ Name string }
		err = BindRows(rows, func(i int, _ Row) ([]any, error) {
			return [][]any{{&name, &a}, {&name, &b}}[i], nil
		})
		return
	}
	a, b, err := bind(rows)
	if err != nil || a.K != 4 || b != (withBoth{16, true}) {
		t.Fatalf("bound %+v %+v, %v; want {4} {16 true}", a, b, err)
	}
	over, _ := ParseCells([]string{"k=8"})
	a, b, err = bind(Override(rows, over))
	if err != nil || a.K != 8 || b.K != 16 {
		t.Fatalf("overridden: %+v %+v, %v; want k=8 over the global and 16 kept", a, b, err)
	}
	if len(rows[0].Globals) != 2 {
		t.Fatalf("Override changed its input: %+v", rows[0].Globals)
	}
	over, _ = ParseCells([]string{"shards=2"})
	if _, _, err = bind(Override(rows, over)); err == nil || !strings.Contains(err.Error(), `global "shards": no row has that key`) {
		t.Fatalf("unused override: %v", err)
	}
	rows, _ = ParseRows([]byte("k = 4\nverbos = true\n\nname\nplain\nown\n"))
	if _, _, err = bind(rows); err == nil || !strings.Contains(err.Error(), `runfile line 2: global "verbos"`) {
		t.Fatalf("misspelt global: %v", err)
	}
}
