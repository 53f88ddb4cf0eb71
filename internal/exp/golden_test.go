package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mtp/internal/cc"
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

// goldenScale renders one baseline's RunScale results on a small fabric:
// every topology x pattern unsharded, plus two two-shard rows per topology.
// Queues are shallow enough that every system retransmits under incast, and
// Check is on so the merged invariant verdicts are pinned too. A changed
// connection, flow or stream ID moves an ECMP hash and shows up here.
func goldenScale(baseline string) string {
	var b strings.Builder
	for _, topo := range []string{"leafspine", "fattree"} {
		run := func(pattern string, shards int) {
			r := RunScale(ScaleConfig{
				Topo: topo, Leaves: 4, Spines: 2, HostsPerLeaf: 2, K: 4,
				Pattern: pattern, MsgSize: 64 << 10, Messages: 2, Incast: 7,
				QueueCap: 24, ECNK: 6, Seed: 3, Workers: 1, Shards: shards, Baseline: baseline, Check: true,
			})
			fmt.Fprintf(&b, "## %s %s shards=%d\n%s", topo, pattern, shards, r)
		}
		for _, pattern := range []string{"incast", "permutation", "shuffle"} {
			run(pattern, 1)
		}
		run("incast", 2)
		run("permutation", 2)
	}
	return b.String()
}

// sections joins rendered results under "## label" headings: one golden file
// holds an experiment at its default configuration and at one that moves its
// other options off their defaults.
func sections(labelled ...string) string {
	var b strings.Builder
	for i := 0; i < len(labelled); i += 2 {
		fmt.Fprintf(&b, "## %s\n%s", labelled[i], labelled[i+1])
	}
	return b.String()
}

// failoverOnce and table1Once memoize the package's two expensive runs, so
// the shape tests assert on the very results the goldens render.
var (
	failoverMemo = map[FailoverConfig]FailoverResult{}
	table1Once   = sync.OnceValue(RunTable1)
)

func failoverOnce(cfg FailoverConfig) FailoverResult {
	r, ok := failoverMemo[cfg]
	if !ok {
		r = RunFailover(cfg)
		failoverMemo[cfg] = r
	}
	return r
}

// TestGolden pins the rendered result of every experiment mtpexp can print,
// byte for byte. The files are the behaviour of the commit that added them; a
// refactor must leave them untouched.
func TestGolden(t *testing.T) {
	type goldenCase struct {
		name string
		run  func() string
	}
	const ms = time.Millisecond
	cases := []goldenCase{
		{"table1", func() string { return table1Once().Verbose() }},
		{"ext", ExtensionsSummary},
		{"fig1", func() string {
			return sections("default", RunFig1(Fig1Config{}).String(),
				"requests=100 seed=7", RunFig1(Fig1Config{Requests: 100, Seed: 7}).String())
		}},
		{"fig2", func() string {
			return sections("default", RunFig2(Fig2Config{}).String(),
				"duration=2ms seed=7", RunFig2(Fig2Config{Duration: 2 * ms, Seed: 7}).String())
		}},
		{"fig3", func() string {
			return sections("outstanding=1", RunFig3(Fig3Config{Outstanding: 1}).String(),
				"duration=2ms seed=7", RunFig3(Fig3Config{Duration: 2 * ms, Seed: 7}).String())
		}},
		{"fig5", func() string { return RunFig5(Fig5Config{Duration: 20 * ms}).String() }},
		{"fig5_singlepathlet", func() string {
			return RunFig5(Fig5Config{Duration: 20 * ms, SinglePathlet: true}).String()
		}},
		{"fig5_sweeps", func() string {
			return sections(
				"period", SweepString(RunFig5PeriodSweep(1, []time.Duration{192 * time.Microsecond}, 2*ms, 7)),
				"cc", CCSweepString(RunFig5CCSweep(1, []cc.Kind{cc.KindDCQCN}, 2*ms, 7)),
				"dcqcn linerate=50G", RunFig5(Fig5Config{Duration: 2 * ms, MTPCC: cc.KindDCQCN, LineRate: 50e9}).String())
		}},
		{"fig6", func() string {
			return sections("default", RunFig6(Fig6Config{}).String(),
				"websearch messages=150 timeout=2ms", RunFig6(Fig6Config{Messages: 150, Workload: "websearch", Timeout: 2 * ms}).String(),
				"load sweep", LoadSweepString(RunFig6LoadSweep(1, []float64{0.5}, 100, 4<<20, 7)))
		}},
		{"fig7", func() string {
			return sections("default", RunFig7(Fig7Config{}).String(),
				"tenant2flows=4 duration=4ms seed=7", RunFig7(Fig7Config{Tenant2Flows: 4, Duration: 4 * ms, Seed: 7}).String())
		}},
		{"offfail", func() string {
			return sections("check", RunOffFail(OffFailConfig{Check: true}).String(),
				"seed=2 duration=25ms", RunOffFail(OffFailConfig{Seed: 2, Duration: 25 * ms}).String())
		}},
		// An early, short blackhole that lifts well before the horizon.
		{"failover_early", func() string {
			return RunFailover(FailoverConfig{Seed: 7, FaultAt: 2 * ms, FaultFor: 4 * ms, Duration: 10 * ms}).String()
		}},
		{"scale_sweep", func() string {
			return ScaleSweepString(RunScaleHostSweep(1, []int{4, 8}, smallScale("permutation")))
		}},
		// A horizon that cuts the incast off mid-transfer.
		{"scale_horizon", func() string {
			return RunScale(ScaleConfig{
				Leaves: 2, Spines: 2, HostsPerLeaf: 2, Pattern: "incast", MsgSize: 256 << 10, Messages: 2, Incast: 3,
				Seed: 3, Workers: 1, Timeout: ms,
			}).String()
		}},
	}
	for _, b := range allBaselines {
		cases = append(cases,
			goldenCase{"scale_" + b, func() string { return goldenScale(b) }},
			goldenCase{"failover_" + b, func() string {
				return failoverOnce(FailoverConfig{Seed: 1, Baseline: b, Check: true}).String()
			}},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, tc.name, tc.run()) })
	}
}
