package topo

import (
	"fmt"

	"mtp/internal/simnet"
)

// FatTreeConfig parameterizes a k-ary fat-tree (Al-Fares et al.): k pods,
// each with k/2 edge and k/2 aggregation switches, (k/2)² core switches,
// and k³/4 hosts. With uniform link rates the fabric is fully non-blocking
// (1:1 at every tier).
type FatTreeConfig struct {
	// K is the switch radix; must be even and ≥ 2. Default 4 (16 hosts).
	K int

	HostLink   LinkSpec // host↔edge links
	FabricLink LinkSpec // edge↔agg and agg↔core trunks

	// Policy builds the forwarding policy per switch (nil = ECMP). Edges
	// and aggs choose among k/2 uplinks; downward routing is single-path.
	Policy PolicyFunc

	// Seed seeds the fabric's discrete-event engine.
	Seed int64
}

// withDefaults fills the zero fields and panics on a radix no fat-tree has.
func (c FatTreeConfig) withDefaults() FatTreeConfig {
	if c.K == 0 {
		c.K = 4
	}
	if c.K < 2 || c.K%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree radix must be even and >= 2, got %d", c.K))
	}
	c.HostLink = c.HostLink.withDefaults()
	c.FabricLink = c.FabricLink.withDefaults()
	return c
}

// NewFatTree builds a k-ary fat-tree: shard 0 of the one-shard plan. Hosts
// are ordered pod-major, then edge, then port: host index
// ((pod·k/2)+edge)·k/2+port. Upward routing offers every uplink as an
// equal-cost candidate; downward routing is deterministic single-path, giving
// the canonical path counts: 1 for same-edge pairs, k/2 within a pod across
// edges, and (k/2)² across pods.
func NewFatTree(cfg FatTreeConfig) *Fabric {
	f, _ := NewFatTreeShard(cfg, PlanFatTreeShards(cfg, 1), 0, nil)
	return f
}

// NewFatTreeShard builds the slice of a k-ary fat-tree that shard owns under
// plan: its pods' switches and hosts, its round-robin share of the cores,
// and every link whose transmitting side it owns. The walk is the full
// topology's walk with unowned elements skipped, so node IDs, pathlet IDs,
// and link ranks are identical to the one-shard build. Links whose receiver
// lives in another shard get the remote hook instead of a local delivery
// (see simnet.LinkConfig.Remote); links arriving from another shard are
// materialized as mirror ingresses so deliveries injected by the shard
// driver carry the true link identity. The returned ShardCut indexes both.
func NewFatTreeShard(cfg FatTreeConfig, plan ShardPlan, shard int, remote simnet.RemoteHook) (*Fabric, *ShardCut) {
	cfg = cfg.withDefaults()
	k := cfg.K
	half := k / 2
	f := newFabric(cfg.Seed, cfg.FabricLink.Delay, remote)
	ownPod := func(p int) bool { return plan.PodShard[p] == shard }

	// Switches first — cores, then per pod aggs and edges — so node IDs and
	// pathlet assignment are stable for a given config. Core a*half+c is
	// the c-th core attached to the a-th agg of every pod.
	cores := make([]*simnet.Switch, half*half)
	for i := range cores {
		cores[i] = f.addSwitch(plan.CoreShard[i] == shard, TierSpine, cfg.Policy)
	}
	aggs := make([][]*simnet.Switch, k)  // [pod][a]
	edges := make([][]*simnet.Switch, k) // [pod][e]
	for p := 0; p < k; p++ {
		aggs[p] = make([]*simnet.Switch, half)
		edges[p] = make([]*simnet.Switch, half)
		for a := 0; a < half; a++ {
			aggs[p][a] = f.addSwitch(ownPod(p), TierAgg, cfg.Policy)
		}
		for e := 0; e < half; e++ {
			edges[p][e] = f.addSwitch(ownPod(p), TierLeaf, cfg.Policy)
		}
	}
	// Unowned switches keep their positional IDs for cut-link bookkeeping.
	core := func(ci int) trunkEnd {
		return trunkEnd{cores[ci], simnet.NodeID(ci), plan.CoreShard[ci]}
	}
	agg := func(p, a int) trunkEnd {
		return trunkEnd{aggs[p][a], simnet.NodeID(half*half + p*k + a), plan.PodShard[p]}
	}
	edge := func(p, e int) trunkEnd {
		return trunkEnd{edges[p][e], simnet.NodeID(half*half + p*k + half + e), plan.PodShard[p]}
	}

	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				f.addHost(p, edges[p][e], cfg.HostLink)
			}
		}
	}

	// Trunks: edge↔agg inside each pod, agg↔core across pods.
	edgeUp := make([][][]*simnet.Link, k)  // [pod][e][a]
	aggDown := make([][][]*simnet.Link, k) // [pod][a][e]
	aggUp := make([][][]*simnet.Link, k)   // [pod][a][c]
	coreDown := make([][]*simnet.Link, half*half)
	for ci := range coreDown {
		coreDown[ci] = make([]*simnet.Link, k)
	}
	for p := 0; p < k; p++ {
		edgeUp[p] = make([][]*simnet.Link, half)
		aggDown[p] = make([][]*simnet.Link, half)
		aggUp[p] = make([][]*simnet.Link, half)
		for i := 0; i < half; i++ {
			edgeUp[p][i] = make([]*simnet.Link, half)
			aggDown[p][i] = make([]*simnet.Link, half)
			aggUp[p][i] = make([]*simnet.Link, half)
		}
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				edgeUp[p][e][a] = f.addTrunk(cfg.FabricLink, edge(p, e), agg(p, a), fmt.Sprintf("p%d-edge%d-agg%d", p, e, a))
				aggDown[p][a][e] = f.addTrunk(cfg.FabricLink, agg(p, a), edge(p, e), fmt.Sprintf("p%d-agg%d-edge%d", p, a, e))
			}
		}
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				ci := a*half + c
				aggUp[p][a][c] = f.addTrunk(cfg.FabricLink, agg(p, a), core(ci), fmt.Sprintf("p%d-agg%d-core%d", p, a, ci))
				coreDown[ci][p] = f.addTrunk(cfg.FabricLink, core(ci), agg(p, a), fmt.Sprintf("core%d-p%d-agg%d", ci, p, a))
			}
		}
	}

	// Routing is computed, not tabulated: per-host route maps in every
	// switch would need O(k⁵/4) entries fabric-wide (~10M at k=32), so each
	// switch decomposes the contiguous host ID via the shared per-radix
	// class tables (see ftclass.go) — two int32 loads per packet instead of
	// two divisions. Candidate sets: all uplinks upward, the unique
	// downlink downward, and the host's access link at its own edge.
	hostBase, nHosts := f.hostIDs[0], len(f.hostIDs)
	cls := fatTreeClasses(k)
	for p := 0; p < k; p++ {
		if !ownPod(p) {
			continue
		}
		for e := 0; e < half; e++ {
			edges[p][e].SetRouteFunc(f.leafRoute((p*half+e)*half, half, edgeUp[p][e]))
		}
		for a := 0; a < half; a++ {
			p, ups := p, aggUp[p][a]
			downs := make([][]*simnet.Link, half) // [he] single-candidate sets
			for e := 0; e < half; e++ {
				downs[e] = aggDown[p][a][e : e+1]
			}
			aggs[p][a].SetRouteFunc(func(dst simnet.NodeID) []*simnet.Link {
				hi := int(dst - hostBase)
				if uint(hi) >= uint(nHosts) {
					return nil
				}
				if int(cls.podOf[hi]) == p {
					return downs[cls.edgeOf[hi]]
				}
				return ups
			})
		}
	}
	for ci := range cores {
		if cores[ci] == nil {
			continue
		}
		downs := make([][]*simnet.Link, k) // [pod] single-candidate sets
		for p := 0; p < k; p++ {
			downs[p] = coreDown[ci][p : p+1]
		}
		cores[ci].SetRouteFunc(func(dst simnet.NodeID) []*simnet.Link {
			hi := int(dst - hostBase)
			if uint(hi) >= uint(nHosts) {
				return nil
			}
			return downs[cls.podOf[hi]]
		})
	}

	f.reservePools()
	return f, f.cut
}
