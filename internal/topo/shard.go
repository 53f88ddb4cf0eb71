package topo

import (
	"fmt"
	"time"

	"mtp/internal/simnet"
)

// ShardPlan partitions a fabric across S parallel simulation shards
// (internal/shard). Pods — the racks of a leaf-spine — are assigned in
// contiguous blocks, so pod-internal traffic (host↔edge↔agg, host↔leaf)
// never crosses a shard boundary, and the top tier's switches (fat-tree
// cores, leaf-spine spines) round-robin, spreading its load. Every build is a
// shard's walk under a plan: NewFatTree and NewLeafSpine build shard 0 of
// the one-shard plan, which owns every node. Replicating the top tier
// instead was rejected: replicated egress queues would see different
// contention than the single shared queue, breaking bit-identity with the
// one-shard run.
type ShardPlan struct {
	// Shards is the shard count S, 1 ≤ S ≤ pods.
	Shards int
	// PodShard maps pod (leaf-spine: leaf) → owning shard (contiguous
	// blocks).
	PodShard []int
	// CoreShard maps core (leaf-spine: spine) index → owning shard
	// (round-robin).
	CoreShard []int
	// Lookahead is the minimum propagation delay over every link that can
	// cross a shard boundary (the FabricLink-class trunks into and out of
	// the top tier: agg↔core, leaf↔spine). A shard that knows every
	// neighbour's clock has passed T may run freely to T+Lookahead: any
	// packet a neighbour emits after T needs at least Lookahead of wire time
	// to arrive.
	Lookahead time.Duration
}

// PlanFatTreeShards computes the pod partition for cfg across shards.
// It panics when shards is out of range — callers decide policy (clamping,
// refusing) before planning.
func PlanFatTreeShards(cfg FatTreeConfig, shards int) ShardPlan {
	cfg = cfg.withDefaults()
	half := cfg.K / 2
	return planShards("fat-tree pods", cfg.K, half*half, shards, cfg.FabricLink.Delay)
}

// PlanLeafSpineShards computes the rack partition for cfg across shards:
// leaves (and their hosts — a rack never splits) are the pods, spines the
// cores. It panics when shards is out of range — callers decide policy
// (clamping, refusing) before planning.
func PlanLeafSpineShards(cfg LeafSpineConfig, shards int) ShardPlan {
	cfg = cfg.withDefaults()
	return planShards("leaf-spine racks", cfg.Leaves, cfg.Spines, shards, cfg.FabricLink.Delay)
}

// planShards deals pods to shards in contiguous blocks and cores
// round-robin.
func planShards(unit string, pods, cores, shards int, lookahead time.Duration) ShardPlan {
	if shards < 1 || shards > pods {
		panic(fmt.Sprintf("topo: %d %s cannot split into %d shards", pods, unit, shards))
	}
	plan := ShardPlan{
		Shards:    shards,
		PodShard:  make([]int, pods),
		CoreShard: make([]int, cores),
		Lookahead: lookahead,
	}
	for p := range plan.PodShard {
		plan.PodShard[p] = p * shards / pods
	}
	for c := range plan.CoreShard {
		plan.CoreShard[c] = c % shards
	}
	return plan
}

// CutPort locates one boundary egress link: its global construction rank
// (the key the receiving shard's mirror is filed under) and the shard that
// owns the receiver.
type CutPort struct {
	Rank     int
	DstShard int
}

// ShardCut is one shard's view of the boundary: Out indexes the egress
// links whose deliveries leave the shard, In the mirror links (keyed by the
// same global rank) through which the shard driver injects arrivals.
type ShardCut struct {
	Out       map[*simnet.Link]CutPort
	In        map[int]*simnet.Link
	Lookahead time.Duration
}

// remoteNode stands in for a switch another shard owns, as the nominal
// destination of a boundary egress link. It never receives: the link's
// Remote hook intercepts delivery.
type remoteNode struct {
	id simnet.NodeID
}

func (r remoteNode) ID() simnet.NodeID { return r.id }

func (r remoteNode) Receive(*simnet.Packet, *simnet.Link) {
	panic(fmt.Sprintf("topo: remote stub for node %d received a packet locally", r.id))
}
