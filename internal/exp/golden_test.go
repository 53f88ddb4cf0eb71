package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// TestGolden pins the rendered result of every experiment the scale runner,
// the rival adapter and the two-path rig feed, byte for byte. The files are
// the behaviour of the commit that added them; a refactor must leave them
// untouched.
func TestGolden(t *testing.T) {
	type goldenCase struct {
		name string
		run  func() string
	}
	cases := []goldenCase{
		{"fig5", func() string { return RunFig5(Fig5Config{Duration: 20 * time.Millisecond}).String() }},
		{"fig5_singlepathlet", func() string {
			return RunFig5(Fig5Config{Duration: 20 * time.Millisecond, SinglePathlet: true}).String()
		}},
	}
	for _, b := range allBaselines {
		cases = append(cases,
			goldenCase{"scale_" + b, func() string { return goldenScale(b) }},
			goldenCase{"failover_" + b, func() string {
				return RunFailover(FailoverConfig{Seed: 1, Baseline: b, Check: true}).String()
			}},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, tc.name, tc.run()) })
	}
}
