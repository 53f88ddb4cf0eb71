package topo

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mtp/internal/simnet"
)

// nullHook discards boundary deliveries; shard construction only needs a
// non-nil RemoteHook on cut links.
type nullHook struct{}

func (nullHook) DeliverRemote(*simnet.Link, time.Duration, *simnet.Packet) {}

// TestPlanFatTreeShards pins the partition shape: contiguous pod blocks,
// round-robin cores, lookahead from the fabric-link delay, and a panic on
// out-of-range shard counts.
func TestPlanFatTreeShards(t *testing.T) {
	cfg := FatTreeConfig{K: 4, FabricLink: LinkSpec{Delay: 7 * time.Microsecond}}
	plan := PlanFatTreeShards(cfg, 2)
	if got, want := plan.PodShard, []int{0, 0, 1, 1}; len(got) != 4 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("PodShard = %v, want %v", got, want)
	}
	if got, want := plan.CoreShard, []int{0, 1, 0, 1}; len(got) != 4 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("CoreShard = %v, want %v", got, want)
	}
	if plan.Lookahead != 7*time.Microsecond {
		t.Fatalf("Lookahead = %v, want the fabric-link delay", plan.Lookahead)
	}

	for _, bad := range []int{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PlanFatTreeShards(k=4, shards=%d) did not panic", bad)
				}
			}()
			PlanFatTreeShards(cfg, bad)
		}()
	}
}

// TestPlanLeafSpineShards pins the rack partition: contiguous leaf blocks,
// round-robin spines, lookahead from the trunk delay, and a panic on
// out-of-range shard counts.
func TestPlanLeafSpineShards(t *testing.T) {
	cfg := LeafSpineConfig{Leaves: 4, Spines: 3, HostsPerLeaf: 2,
		FabricLink: LinkSpec{Delay: 5 * time.Microsecond}}
	plan := PlanLeafSpineShards(cfg, 2)
	if got, want := plan.PodShard, []int{0, 0, 1, 1}; len(got) != 4 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("PodShard = %v, want %v", got, want)
	}
	if got, want := plan.CoreShard, []int{0, 1, 0}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("CoreShard = %v, want %v", got, want)
	}
	if plan.Lookahead != 5*time.Microsecond {
		t.Fatalf("Lookahead = %v, want the trunk delay", plan.Lookahead)
	}
	for _, bad := range []int{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PlanLeafSpineShards(leaves=4, shards=%d) did not panic", bad)
				}
			}()
			PlanLeafSpineShards(cfg, bad)
		}()
	}
}

// shardFabric names one fabric's constructors for checkShardSlices, and
// the pod of a switch from its positional ID (-1 for the top tier).
type shardFabric struct {
	full  func() *Fabric
	plan  func(shards int) ShardPlan
	build func(plan ShardPlan, s int) (*Fabric, *ShardCut)
	pod   func(id simnet.NodeID) int
}

// TestFatTreeShardSlices checks that the union of the fat-tree shard builds
// is the one-shard fat-tree, at 1 and 2 shards (see checkShardSlices).
func TestFatTreeShardSlices(t *testing.T) {
	cfg := FatTreeConfig{K: 4}
	checkShardSlices(t, shardFabric{
		full:  func() *Fabric { return NewFatTree(cfg) },
		plan:  func(shards int) ShardPlan { return PlanFatTreeShards(cfg, shards) },
		build: func(plan ShardPlan, s int) (*Fabric, *ShardCut) { return NewFatTreeShard(cfg, plan, s, nullHook{}) },
		// Cores first, then each pod's aggs and edges (k switches per pod).
		pod: func(id simnet.NodeID) int {
			if cores := cfg.K * cfg.K / 4; int(id) >= cores {
				return (int(id) - cores) / cfg.K
			}
			return -1
		},
	})

	if got, want := TierLeaf.String(), "leaf"; got != want {
		t.Fatalf("TierLeaf = %q", got)
	}
	if got, want := TierAgg.String(), "agg"; got != want {
		t.Fatalf("TierAgg = %q", got)
	}
	if got, want := TierSpine.String(), "spine"; got != want {
		t.Fatalf("TierSpine = %q", got)
	}
}

// TestLeafSpineShardSlices checks that the union of the leaf-spine shard
// builds is the one-shard fabric, at 1 and 2 shards (see checkShardSlices).
func TestLeafSpineShardSlices(t *testing.T) {
	cfg := LeafSpineConfig{Leaves: 4, Spines: 4, HostsPerLeaf: 3}
	checkShardSlices(t, shardFabric{
		full:  func() *Fabric { return NewLeafSpine(cfg) },
		plan:  func(shards int) ShardPlan { return PlanLeafSpineShards(cfg, shards) },
		build: func(plan ShardPlan, s int) (*Fabric, *ShardCut) { return NewLeafSpineShard(cfg, plan, s, nullHook{}) },
		// Spines first, then one leaf per rack.
		pod: func(id simnet.NodeID) int {
			if int(id) >= cfg.Spines {
				return int(id) - cfg.Spines
			}
			return -1
		},
	})
}

// checkShardSlices checks, at 1 and 2 shards, that the union of the shard
// builds is the one-shard fabric: every host materialized exactly once at
// its one-shard ID, with its downlink an egress of its leaf; per-shard
// switch inventories restricted to owned pods (racks) and a disjoint share
// of the top tier; every owned switch routing every host over the same
// links as the one-shard build; and link ranks on the cut matching mirrors
// on the receiving side.
func checkShardSlices(t *testing.T, fc shardFabric) {
	t.Helper()
	for _, S := range []int{1, 2} {
		t.Run(fmt.Sprintf("S=%d", S), func(t *testing.T) {
			full := fc.full()
			plan := fc.plan(S)
			fabs := make([]*Fabric, S)
			cuts := make([]*ShardCut, S)
			for s := 0; s < S; s++ {
				fabs[s], cuts[s] = fc.build(plan, s)
				if cuts[s].Lookahead != plan.Lookahead {
					t.Fatalf("shard %d cut lookahead %v, want %v", s, cuts[s].Lookahead, plan.Lookahead)
				}
			}

			for i := 0; i < full.NumHosts(); i++ {
				owner := plan.PodShard[full.HostPod(i)]
				for s, fab := range fabs {
					if fab.HostID(i) != full.HostID(i) {
						t.Fatalf("shard %d host %d ID %d, want one-shard %d", s, i, fab.HostID(i), full.HostID(i))
					}
					if owns := fab.OwnsHost(i); owns != (s == owner) {
						t.Fatalf("shard %d OwnsHost(%d) = %v, owner is %d", s, i, owns, owner)
					}
					up, down := fab.HostLinks(i)
					if (up != nil) != (s == owner) || (down != nil) != (s == owner) {
						t.Fatalf("shard %d host %d links materialized = (%v,%v), owner is %d", s, i, up != nil, down != nil, owner)
					}
					if up != nil && !slices.Contains(up.Dst().(*simnet.Switch).EgressLinks(), down) {
						t.Fatalf("shard %d host %d downlink is not an egress of its leaf", s, i)
					}
				}
			}

			// Switch inventory: pod tiers only for owned pods, the top
			// tier podless and split without overlap.
			tops := 0
			for s, fab := range fabs {
				for _, tier := range []Tier{TierLeaf, TierAgg} {
					for _, sw := range fab.Switches(tier) {
						if pod := fc.pod(sw.ID()); pod < 0 || plan.PodShard[pod] != s {
							t.Fatalf("shard %d built %v for pod %d owned by %d", s, tier, pod, plan.PodShard[pod])
						}
					}
				}
				for _, sw := range fab.Switches(TierSpine) {
					if fc.pod(sw.ID()) != -1 {
						t.Fatal("top-tier switch reports a pod")
					}
				}
				tops += len(fab.Switches(TierSpine))
			}
			if want := len(full.Switches(TierSpine)); tops != want {
				t.Fatalf("top-tier switches across shards = %d, want %d", tops, want)
			}

			// Routing: every owned switch offers every host the links the
			// one-shard build's switch of the same ID offers, in order.
			names := func(ls []*simnet.Link) []string {
				var out []string
				for _, l := range ls {
					out = append(out, l.Name())
				}
				return out
			}
			for s, fab := range fabs {
				for _, tier := range []Tier{TierLeaf, TierAgg, TierSpine} {
					for _, sw := range fab.Switches(tier) {
						want := full.Net.Node(sw.ID()).(*simnet.Switch)
						for i := 0; i < full.NumHosts(); i++ {
							got, exp := names(sw.Routes(fab.HostID(i))), names(want.Routes(full.HostID(i)))
							if len(got) == 0 || !slices.Equal(got, exp) {
								t.Fatalf("shard %d switch %d routes host %d over %v, one-shard build over %v", s, sw.ID(), i, got, exp)
							}
						}
					}
				}
			}

			// Every cut-out port must have a mirror with the same global
			// rank in the destination shard, and no two shards may share
			// an egress rank. One shard has no cut at all.
			seenRank := map[int]int{}
			for s := 0; s < S; s++ {
				for l, port := range cuts[s].Out {
					if port.DstShard == s {
						t.Fatalf("shard %d cut link %s claims itself as destination", s, l.Name())
					}
					if prev, dup := seenRank[port.Rank]; dup {
						t.Fatalf("rank %d exported by shards %d and %d", port.Rank, prev, s)
					}
					seenRank[port.Rank] = s
					mirror := cuts[port.DstShard].In[port.Rank]
					if mirror == nil {
						t.Fatalf("shard %d has no mirror for rank %d from shard %d", port.DstShard, port.Rank, s)
					}
					if mirror.Name() != l.Name() {
						t.Fatalf("mirror name %q for cut link %q", mirror.Name(), l.Name())
					}
				}
			}
			if (len(seenRank) == 0) != (S == 1) || (S == 1 && len(cuts[0].In) != 0) {
				t.Fatalf("%d cut links, %d mirrors in shard 0, on %d shards", len(seenRank), len(cuts[0].In), S)
			}
		})
	}
}

// TestRemoteStubNeverReceives pins the contract that a remote stand-in node
// only exists to carry an ID: a local delivery to it is a wiring bug and
// must panic loudly rather than silently vanish.
func TestRemoteStubNeverReceives(t *testing.T) {
	stub := remoteNode{id: 12}
	if stub.ID() != 12 {
		t.Fatalf("stub ID %d, want 12", stub.ID())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("remote stub accepted a local delivery")
		}
	}()
	stub.Receive(nil, nil)
}
