package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtp/internal/scenario"
)

// TestOneOf pins the up-front check of the cells: the experiment layer panics
// on an unknown topology, pattern or baseline, so outside input must be
// turned away — with the accepted values in the message — before anything
// runs. A key the experiment does not have is an error too, where the flags
// this grammar replaced were silently ignored (-seed by table1 and ext,
// -check by every figure).
func TestOneOf(t *testing.T) {
	for _, tc := range []struct {
		args string
		want []string // substrings of the error; none means it must load
	}{
		{"-exp scale", nil},
		{"-exp scale topo=fattree pattern=shuffle baseline=quic", nil},
		{"-exp scale topo=foo", []string{`unknown topo "foo"`, "leafspine", "fattree"}},
		{"-exp scale pattern=Shuffle", []string{`unknown pattern "Shuffle"`, "permutation", "incast", "shuffle"}},
		{"-exp scalesweep baseline=tcp", []string{`unknown baseline "tcp"`, "dctcp", "mptcp-lia", "mptcp-olia", "quic"}},
		{"-exp failover baseline=tcp", []string{`unknown baseline "tcp"`, "quic"}},
		{"-exp scenario topo=ring", []string{`unknown topo "ring"`, "leafspine"}},
		{"-exp fig5 mtpcc=reno", []string{`unknown mtpcc "reno"`, "dctcp", "swift"}},
		{"-exp ccsweep kinds=dctcp:reno", []string{`unknown kinds "reno"`}},
		{"-exp fig6 workload=hadoop", []string{`unknown workload "hadoop"`, "papermix", "websearch"}},
		{"-exp fig2 duration=2", []string{`duration: "2" is not a valid time.Duration`}},
		{"-exp fig2 durration=2ms", []string{`unknown key "durration"`, "duration", "seed"}},
		{"-exp table1 seed=7", []string{`unknown key "seed"`, "verbose"}},
		{"-exp ext seed=7", []string{`unknown key "seed"`}},
		{"-exp fig5 check=true", []string{`unknown key "check"`}},
		{"-exp all bogus=1", []string{`global "bogus": no row has that key`}},
		{"-exp scalesweep topo=fattree k=8", []string{"ks="}},
		{"-exp scalesweep ks=4:8", []string{"ks="}},
		{"-exp fig9", []string{`unknown experiment "fig9"`, "fig1", "scenario", "all"}},
		{"-exp fig5 -parallel 2", []string{"flags go before the cells"}},
	} {
		_, err := loadArgs(t, tc.args)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: %v", tc.args, err)
			}
			continue
		}
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %v lacks %q", tc.args, err, w)
			}
		}
	}
}

func loadArgs(t *testing.T, args string) (int, error) {
	t.Helper()
	f := strings.Fields(args)
	flags := map[string]string{}
	for len(f) >= 2 && (f[0] == "-exp" || f[0] == "-run" || f[0] == "-only") {
		flags[f[0]], f = f[1], f[2:]
	}
	jobs, err := load(flags["-exp"], flags["-run"], flags["-only"], f)
	return len(jobs), err
}

// TestDocumentedRows binds, without running, every invocation README.md,
// TESTING.md, EXPERIMENTS.md, the Makefile, ci.yml and the verify skill show:
// a doc that drifts from the keys fails here.
func TestDocumentedRows(t *testing.T) {
	for args, jobs := range map[string]int{
		"-exp all":                                            10,
		"-exp all seed=7":                                     10,
		"-exp all duration=2ms timeout=2ms":                   10,
		"-exp table1 verbose=true":                            1,
		"-exp fig5 samples=true":                              1,
		"-exp fig5sweep":                                      1,
		"-exp fig5sweep periods=192us duration=2ms":           1,
		"-exp ccsweep":                                        1,
		"-exp fig6sweep":                                      1,
		"-exp fig6 workload=websearch":                        1,
		"-exp ext":                                            1,
		"-exp failover seed=42":                               1,
		"-exp failover samples=true":                          1,
		"-exp failover check=true baseline=quic":              1,
		"-exp offfail check=true":                             1,
		"-exp scale check=true baseline=mptcp-olia":           1,
		"-exp scale topo=fattree k=8 pattern=incast shards=4": 1,
		"-exp scale topo=fattree k=32 shards=8 pattern=incast msgsize=262144 messages=1":   1,
		"-exp scale check=true leaves=4 spines=2 hostsperleaf=4 msgsize=262144 messages=1": 1,
		"-exp scalesweep":                                    1,
		"-exp scalesweep hosts=32:64":                        1,
		"-exp scalesweep topo=fattree ks=4:8:16:32 shards=8": 1,
		"-exp scenario seed=1 scenarios=100":                 1,
		"-exp scenario offload=true":                         1,
		"-exp scenario seed=1 rival=true":                    1,
		"-exp scenario seed=51 topo=leafspine leaves=4 spines=2 hostsperleaf=1 messages=2 maxfaults=2 horizon=31ms": 1,
		"-run ../../ci/sim.run":                                    7,
		"-run ../../ci/sim.run -only sharded-scale":                1,
		"-run ../../ci/sim.run -only sharded-leafspine":            1,
		"-run ../../ci/sim.run -only failover-quic":                1,
		"-run ../../internal/exp/testdata/scale.run baseline=quic": 10,
		"-run ../../internal/exp/testdata/fig6.run -only default":  1,
	} {
		if got, err := loadArgs(t, args); err != nil || got != jobs {
			t.Errorf("%s: %d jobs, %v; want %d", args, got, err, jobs)
		}
	}
}

// TestRunfileSelection runs rows from a file: -only narrows them, a trailing
// cell overrides a global, and a row's own cell beats both.
func TestRunfileSelection(t *testing.T) {
	file := filepath.Join(t.TempDir(), "two.run")
	err := os.WriteFile(file, []byte(`
duration = 1ms
switchperiod = 200us

name, exp, switchperiod
from-global, fig5,
own-cell, fig5, 300us
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string // the alternation periods printed, in order
	}{
		{[]string{"-run", file}, []string{"200µs", "300µs"}},
		{[]string{"-run", file, "-only", "own-cell"}, []string{"300µs"}},
		{[]string{"-run", file, "-only", "from-global", "switchperiod=100us"}, []string{"100µs"}},
		{[]string{"-run", file, "switchperiod=100us"}, []string{"100µs", "300µs"}},
	} {
		var out, errOut bytes.Buffer
		if status := run(tc.args, &out, &errOut); status != 0 {
			t.Fatalf("%q: exit %d: %s", tc.args, status, errOut.String())
		}
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			if _, period, ok := strings.Cut(line, "alternating every "); ok {
				got = append(got, strings.TrimSuffix(period, ")"))
			}
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%q printed periods %q, want %q\n%s", tc.args, got, tc.want, out.String())
		}
	}
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-run", file, "-only", "absent"},
		{"-run", file + ".missing"},
		{"-exp", "fig9"},
		{"-nosuchflag"},
	} {
		if status := run(args, &out, &errOut); status != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d with stdout %q, want 2 and nothing run", args, status, out.String())
		}
	}
}

// TestReproLineReplays pastes scenario.ReproLine into the command, as a user
// would, for the pinned regression seeds: the row binds back to the same
// (seed, Overrides), so the command prints that very run.
func TestReproLineReplays(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		ov   scenario.Overrides
	}{
		{51, scenario.Overrides{Topo: "leafspine", Leaves: 4, Spines: 2, HostsPerLeaf: 1,
			Messages: 2, MaxFaults: 2, Horizon: 31 * time.Millisecond}},
		{58, scenario.Overrides{Topo: "leafspine", Leaves: 4, Spines: 2, HostsPerLeaf: 2,
			Messages: 4, MaxFaults: 1, Horizon: 19 * time.Millisecond}},
		{12, scenario.Overrides{MaxFaults: -1, Rival: true}},
		{3, scenario.Overrides{MaxFaults: 0, Offload: true}},
	} {
		line := scenario.ReproLine(tc.seed, tc.ov)
		var out, errOut bytes.Buffer
		if status := run(strings.Fields(line)[1:], &out, &errOut); status != 0 {
			t.Fatalf("%s: exit %d: %s", line, status, errOut.String())
		}
		if want := scenario.Run(tc.seed, tc.ov).String(); out.String() != want {
			t.Errorf("%s printed\n%swant\n%s", line, out.String(), want)
		}
	}
}
