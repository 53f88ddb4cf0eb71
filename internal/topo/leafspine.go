package topo

import (
	"fmt"

	"mtp/internal/simnet"
)

// LeafSpineConfig parameterizes a two-tier leaf-spine fabric: Leaves ToR
// switches each hosting HostsPerLeaf hosts, fully meshed to Spines spine
// switches. Every inter-rack host pair has exactly Spines equal-cost paths;
// with FabricLink.Rate == HostLink.Rate the rack oversubscription ratio is
// HostsPerLeaf : Spines.
type LeafSpineConfig struct {
	Leaves       int // number of ToR switches, default 2
	Spines       int // number of spine switches, default 2
	HostsPerLeaf int // hosts under each ToR, default 2

	HostLink   LinkSpec // host↔leaf links
	FabricLink LinkSpec // leaf↔spine trunks

	// Policy builds the forwarding policy per switch (nil = ECMP). Only
	// leaves face a choice (spines have a single downlink per host), but
	// the policy is installed uniformly.
	Policy PolicyFunc

	// Seed seeds the fabric's discrete-event engine.
	Seed int64
}

// withDefaults fills the zero fields and panics on a shape no leaf-spine
// has.
func (c LeafSpineConfig) withDefaults() LeafSpineConfig {
	if c.Leaves == 0 {
		c.Leaves = 2
	}
	if c.Spines == 0 {
		c.Spines = 2
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 2
	}
	if c.Leaves < 1 || c.Spines < 1 || c.HostsPerLeaf < 1 {
		panic("topo: leaf-spine needs at least one leaf, spine, and host per leaf")
	}
	c.HostLink = c.HostLink.withDefaults()
	c.FabricLink = c.FabricLink.withDefaults()
	return c
}

// NewLeafSpine builds a leaf-spine fabric: shard 0 of the one-shard plan.
// Hosts are ordered leaf-major: host i sits under leaf i/HostsPerLeaf. Each
// leaf routes local hosts via their access link and every remote host via
// all Spines uplinks (the policy picks among them); each spine routes every
// host via its one downlink to the host's leaf — exactly the equal-cost
// shortest paths, so routing is loop-free by construction and every
// inter-rack pair has exactly Spines paths.
func NewLeafSpine(cfg LeafSpineConfig) *Fabric {
	f, _ := NewLeafSpineShard(cfg, PlanLeafSpineShards(cfg, 1), 0, nil)
	return f
}

// NewLeafSpineShard builds the slice of a leaf-spine fabric that shard owns
// under plan: its racks (leaf switch plus hosts), its round-robin share of
// the spines, and every link whose transmitting side it owns. As with
// NewFatTreeShard, the walk is the full topology's walk with unowned
// elements skipped, so node IDs, pathlet IDs, and link ranks match the
// one-shard build; boundary egresses get the remote hook and boundary
// ingresses materialize as rank-keyed mirrors, indexed by the returned
// ShardCut. Host↔leaf links never cross (a rack is atomic); only leaf↔spine
// trunks do.
func NewLeafSpineShard(cfg LeafSpineConfig, plan ShardPlan, shard int, remote simnet.RemoteHook) (*Fabric, *ShardCut) {
	cfg = cfg.withDefaults()
	f := newFabric(cfg.Seed, cfg.FabricLink.Delay, remote)

	// Switches first, in tier order, so IDs and pathlets are stable.
	spines := make([]*simnet.Switch, cfg.Spines)
	for si := range spines {
		spines[si] = f.addSwitch(plan.CoreShard[si] == shard, TierSpine, cfg.Policy)
	}
	leaves := make([]*simnet.Switch, cfg.Leaves)
	for li := range leaves {
		leaves[li] = f.addSwitch(plan.PodShard[li] == shard, TierLeaf, cfg.Policy)
	}
	// Unowned switches keep their positional IDs for cut-link bookkeeping.
	spine := func(si int) trunkEnd {
		return trunkEnd{spines[si], simnet.NodeID(si), plan.CoreShard[si]}
	}
	leaf := func(li int) trunkEnd {
		return trunkEnd{leaves[li], simnet.NodeID(cfg.Spines + li), plan.PodShard[li]}
	}

	for li := range leaves {
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			f.addHost(li, leaves[li], cfg.HostLink)
		}
	}

	// Full leaf↔spine mesh.
	ups := make([][]*simnet.Link, cfg.Leaves)   // [leaf][spine]
	downs := make([][]*simnet.Link, cfg.Leaves) // [leaf][spine]
	for li := range leaves {
		ups[li] = make([]*simnet.Link, cfg.Spines)
		downs[li] = make([]*simnet.Link, cfg.Spines)
		for si := range spines {
			ups[li][si] = f.addTrunk(cfg.FabricLink, leaf(li), spine(si), fmt.Sprintf("leaf%d-spine%d", li, si))
			downs[li][si] = f.addTrunk(cfg.FabricLink, spine(si), leaf(li), fmt.Sprintf("spine%d-leaf%d", si, li))
		}
	}

	// Routes, computed from the contiguous host IDs as the fat-tree's are:
	// leaves spread remote traffic across every spine; spines have one way
	// down to each leaf.
	hostBase, nHosts, perLeaf := f.hostIDs[0], len(f.hostIDs), cfg.HostsPerLeaf
	for li, l := range leaves {
		if l != nil {
			l.SetRouteFunc(f.leafRoute(li*perLeaf, perLeaf, ups[li]))
		}
	}
	for si, s := range spines {
		if s == nil {
			continue
		}
		s.SetRouteFunc(func(dst simnet.NodeID) []*simnet.Link {
			hi := int(dst - hostBase)
			if uint(hi) >= uint(nHosts) {
				return nil
			}
			return downs[hi/perLeaf][si : si+1]
		})
	}

	f.reservePools()
	return f, f.cut
}
