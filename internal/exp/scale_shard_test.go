package exp

import (
	"fmt"
	"testing"
)

// TestScaleShardedDeterminism is the regression gate for the parallel
// engine: a sharded run must render byte-identical results — FCT
// percentiles, goodput, queue series, retransmits, and invariant verdicts —
// to the single-engine run of the same configuration, across seeds, shard
// counts, topologies, and both a convergent (incast) and a dispersed
// (permutation) pattern. ScaleResult.String deliberately excludes
// wall-clock fields, so string equality here means the simulations executed
// the same events.
func TestScaleShardedDeterminism(t *testing.T) {
	fattree := ScaleConfig{Topo: "fattree", K: 4}
	leafspine := ScaleConfig{Topo: "leafspine", Leaves: 4, Spines: 3, HostsPerLeaf: 4}
	cases := []struct {
		name   string
		base   ScaleConfig
		shards []int
		seeds  []int64
		incast int
	}{
		{"fattree-k4", fattree, []int{2, 4}, []int64{1, 2, 3}, 8},
		{"leafspine", leafspine, []int{2, 4}, []int64{1, 2}, 8},
		// One wide split on a bigger fabric: k=8 (128 hosts, 8 pods) at S=8
		// exercises the full all-pairs exchange fan-out. A pod holds 16
		// hosts, so the fan-in must exceed that for incast to cross pods.
		{"fattree-k8-s8", ScaleConfig{Topo: "fattree", K: 8}, []int{8}, []int64{1}, 32},
		// The rivals other than the default DCTCP, one shard against two: the
		// wiring pre-creates receivers on the shard that owns the destination
		// and derives every subflow, connection and stream ID from the plan,
		// which is only exercised when sender and receiver sit in different
		// shards.
		{"leafspine-mptcp", ScaleConfig{Topo: "leafspine", Leaves: 4, Spines: 3, HostsPerLeaf: 4, Baseline: "mptcp-lia"}, []int{2}, []int64{1}, 8},
		{"fattree-k4-quic", ScaleConfig{Topo: "fattree", K: 4, Baseline: "quic"}, []int{2}, []int64{1}, 8},
	}
	for _, tc := range cases {
		for _, pattern := range []string{"incast", "permutation"} {
			for _, seed := range tc.seeds {
				base := tc.base
				base.Pattern = pattern
				base.MsgSize = 64 << 10
				base.Messages = 2
				base.Incast = tc.incast
				base.Seed = seed
				base.Workers = 1
				base.Shards = 1
				base.Check = true
				ref := RunScale(base)
				refStr := ref.String()
				for _, row := range ref.Rows {
					if row.Completed == 0 {
						t.Fatalf("%s %s seed %d: unsharded %s run completed nothing", tc.name, pattern, seed, row.System)
					}
					if row.ViolationCount != 0 {
						t.Fatalf("%s %s seed %d: unsharded %s run has violations:\n%s", tc.name, pattern, seed, row.System, refStr)
					}
				}
				for _, S := range tc.shards {
					cfg := base
					cfg.Shards = S
					got := RunScale(cfg)
					if gotStr := got.String(); gotStr != refStr {
						t.Errorf("%s %s seed %d: %d-shard run diverged from single-engine run\n--- 1 shard ---\n%s--- %d shards ---\n%s",
							tc.name, pattern, seed, S, refStr, S, gotStr)
					}
					for _, row := range got.Rows {
						if row.Crossings == 0 {
							t.Errorf("%s %s seed %d S=%d: %s run had no shard crossings — not exercising the boundary", tc.name, pattern, seed, S, row.System)
						}
					}
				}
			}
		}
	}
}

// TestCapWorkers pins the -parallel/-shards interaction rule: the effective
// sweep fan-out times the per-point shard count never exceeds GOMAXPROCS.
func TestCapWorkers(t *testing.T) {
	for _, tc := range []struct{ workers, shards int }{
		{0, 1}, {0, 4}, {8, 2}, {1, 64}, {16, 1}, {-3, 8},
	} {
		t.Run(fmt.Sprintf("w%d_s%d", tc.workers, tc.shards), func(t *testing.T) {
			got := CapWorkers(tc.workers, tc.shards)
			if got < 1 {
				t.Fatalf("CapWorkers(%d, %d) = %d, want >= 1", tc.workers, tc.shards, got)
			}
			if tc.workers > 0 && got > tc.workers {
				t.Fatalf("CapWorkers(%d, %d) = %d, exceeds requested workers", tc.workers, tc.shards, got)
			}
		})
	}
}
