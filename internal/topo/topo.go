// Package topo declaratively constructs datacenter fabrics on top of
// internal/simnet: a two-tier leaf-spine and a k-ary fat-tree, parameterized
// by radix, link rate/delay, queue depth, and ECN threshold. The builders
// instantiate switches and links, install hop-by-hop routes whose candidate
// sets are exactly the equal-cost shortest paths, assign a stable pathlet ID
// to every switch-to-switch trunk, and return a Fabric handle that attaches
// endpoints (internal/simhost) and exposes per-pod/per-tier fault targets
// (internal/fault). Construction is purely deterministic: the same config
// always yields the same wiring, the same pathlet IDs, and the same route
// candidate order, which is what makes fabric-scale experiments replayable
// from a seed.
package topo

import (
	"fmt"
	"time"

	"mtp/internal/sim"
	"mtp/internal/simnet"
)

// LinkSpec parameterizes one class of fabric links.
type LinkSpec struct {
	// Rate is the line rate in bits per second. Zero means 10 Gbps.
	Rate float64
	// Delay is the propagation delay. Zero means 1 µs.
	Delay time.Duration
	// QueueCap is the per-queue capacity in packets. Zero means 256.
	QueueCap int
	// ECNThreshold marks CE at this instantaneous queue length. Zero means
	// QueueCap/4 (disable explicitly with a negative value).
	ECNThreshold int
}

func (s LinkSpec) withDefaults() LinkSpec {
	if s.Rate == 0 {
		s.Rate = 10e9
	}
	if s.Delay == 0 {
		s.Delay = time.Microsecond
	}
	if s.QueueCap == 0 {
		s.QueueCap = 256
	}
	if s.ECNThreshold == 0 {
		s.ECNThreshold = s.QueueCap / 4
	}
	if s.ECNThreshold < 0 {
		s.ECNThreshold = 0
	}
	return s
}

// link is the configuration of one link of this class, ranked rank.
func (s LinkSpec) link(rank int) simnet.LinkConfig {
	return simnet.LinkConfig{
		Rate: s.Rate, Delay: s.Delay,
		QueueCap: s.QueueCap, ECNThreshold: s.ECNThreshold,
		Rank: rank,
	}
}

// PolicyFunc builds a fresh forwarding-policy instance for one switch.
// Stateful policies (MessageLB, MessageRR, Spray) must not be shared between
// switches, so the fabric calls this once per switch. Nil means ECMP.
type PolicyFunc func() simnet.ForwardPolicy

// Tier identifies a switch layer in a fabric.
type Tier int

const (
	// TierLeaf is the host-facing layer (ToR / fat-tree edge).
	TierLeaf Tier = iota
	// TierAgg is the fat-tree aggregation layer (absent in leaf-spine).
	TierAgg
	// TierSpine is the top layer (leaf-spine spine / fat-tree core).
	TierSpine
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierLeaf:
		return "leaf"
	case TierAgg:
		return "agg"
	case TierSpine:
		return "spine"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Trunk is one directed switch-to-switch link with its place in the fabric —
// the unit of pathlet identity and the natural fault-injection target.
type Trunk struct {
	Link     *simnet.Link
	From, To *simnet.Switch
	// FromTier/ToTier locate the trunk (leaf→spine is an uplink,
	// spine→leaf a downlink, and so on).
	FromTier, ToTier Tier
	// Pod is the pod of the pod-side endpoint (leaf index in a leaf-spine),
	// or -1 for trunks that touch no pod.
	Pod int
	// Pathlet is the stable ID stamped into MTP headers on this trunk. IDs
	// are unique per (switch, egress) fabric-wide and assigned in
	// construction order, so rebuilding the same config reproduces them.
	Pathlet uint32
}

// Fabric is a constructed topology: the engine and network it lives on, the
// hosts in deterministic order, and the switch/trunk inventory grouped the
// way fault-injection experiments want to target it.
type Fabric struct {
	Eng *sim.Engine
	Net *simnet.Network

	hosts    []*simnet.Host
	hostPod  []int // pod (leaf-spine: leaf index) per host
	hostUp   []*simnet.Link
	hostDown []*simnet.Link
	// hostIDs holds every host's network address, including hosts that a
	// partitioned build left to other shards — the walk allocates the same
	// IDs whether or not the node is materialized.
	hostIDs []simnet.NodeID

	switches  map[Tier][]*simnet.Switch
	switchPod map[*simnet.Switch]int

	trunks      []*Trunk
	nextPathlet uint32
	// nextRank numbers every link in construction order; the rank keys
	// same-timestamp delivery ordering in the engine (simnet.LinkConfig.Rank)
	// so event order is a function of the wiring, not engine-local history.
	nextRank int

	// cut is the shard's boundary, filled as the walk wires trunks, and
	// remote the hook boundary egresses deliver through.
	cut    *ShardCut
	remote simnet.RemoteHook
}

// NumHosts returns the number of hosts in the fabric — the full topology's
// count even in a partitioned build, where unowned entries are nil.
func (f *Fabric) NumHosts() int { return len(f.hosts) }

// Host returns host i (construction order: pod-major, then leaf, then port).
// In a partitioned build it is nil for hosts owned by other shards.
func (f *Fabric) Host(i int) *simnet.Host { return f.hosts[i] }

// HostID returns host i's network address. Unlike Host, it is defined for
// every host of a partitioned build: IDs are allocated by construction
// position, so shard s can address a host that only shard t materialized.
func (f *Fabric) HostID(i int) simnet.NodeID { return f.hostIDs[i] }

// OwnsHost reports whether host i was materialized in this build (always
// true in a full build).
func (f *Fabric) OwnsHost(i int) bool { return f.hosts[i] != nil }

// HostPod returns the pod (leaf-spine: leaf index) of host i.
func (f *Fabric) HostPod(i int) int { return f.hostPod[i] }

// HostLinks returns host i's uplink (host→leaf) and downlink (leaf→host) —
// edge fault targets.
func (f *Fabric) HostLinks(i int) (up, down *simnet.Link) {
	return f.hostUp[i], f.hostDown[i]
}

// Switches returns the switches of one tier in construction order.
func (f *Fabric) Switches(t Tier) []*simnet.Switch { return f.switches[t] }

// Trunks returns every switch-to-switch link in construction order.
func (f *Fabric) Trunks() []*Trunk { return f.trunks }

// --- construction helpers ---

// newFabric starts one shard's walk of a fabric. The cut collects the
// boundary links as the walk wires them, and remote is the hook their
// deliveries leave by (nil in a one-shard build, which has no boundary).
func newFabric(seed int64, lookahead time.Duration, remote simnet.RemoteHook) *Fabric {
	eng := sim.NewEngine(seed)
	return &Fabric{
		Eng:         eng,
		Net:         simnet.NewNetwork(eng),
		switches:    make(map[Tier][]*simnet.Switch),
		switchPod:   make(map[*simnet.Switch]int),
		nextPathlet: 1,
		cut: &ShardCut{
			Out:       make(map[*simnet.Link]CutPort),
			In:        make(map[int]*simnet.Link),
			Lookahead: lookahead,
		},
		remote: remote,
	}
}

// addSwitch materializes the next switch when this shard owns it; otherwise
// it only reserves the switch's positional ID and returns nil.
func (f *Fabric) addSwitch(own bool, t Tier, pod int, policy PolicyFunc) *simnet.Switch {
	if !own {
		f.Net.SkipIDs(1)
		return nil
	}
	var p simnet.ForwardPolicy
	if policy != nil {
		p = policy()
	} else {
		p = simnet.ECMP{}
	}
	sw := simnet.NewSwitch(f.Net, p)
	f.switches[t] = append(f.switches[t], sw)
	if pod >= 0 {
		f.switchPod[sw] = pod
	}
	return sw
}

// allocRank numbers the next link; ranks start at 1 because Rank 0 means
// "unranked" to simnet.
func (f *Fabric) allocRank() int {
	f.nextRank++
	return f.nextRank
}

// addHost materializes the next host under leaf. The host's downlink is a
// leaf egress, so a leaf crash flushes the packets queued toward the host;
// the leaf's route function (leafRoute) is what sends packets down it. Under
// a leaf another shard owns (nil), addHost only advances the ID, rank and
// inventory counters.
func (f *Fabric) addHost(pod int, leaf *simnet.Switch, spec LinkSpec) {
	var h *simnet.Host
	var up, down *simnet.Link
	if leaf == nil {
		f.hostIDs = append(f.hostIDs, f.Net.NextID())
		f.Net.SkipIDs(1)
		f.nextRank += 2 // the up and down access links
	} else {
		h = simnet.NewHost(f.Net)
		i := len(f.hosts)
		up = f.Net.Connect(leaf, spec.link(f.allocRank()), fmt.Sprintf("host%d-up", i))
		down = f.Net.Connect(h, spec.link(f.allocRank()), fmt.Sprintf("host%d-down", i))
		h.SetUplink(up)
		leaf.AddEgress(down)
		f.hostIDs = append(f.hostIDs, h.ID())
	}
	f.hosts = append(f.hosts, h)
	f.hostPod = append(f.hostPod, pod)
	f.hostUp = append(f.hostUp, up)
	f.hostDown = append(f.hostDown, down)
}

// trunkEnd is one side of a trunk as a shard's walk sees it: the switch (nil
// when another shard owns it), its positional ID and owning shard (which
// name the far end of a boundary crossing), and its tier.
type trunkEnd struct {
	sw    *simnet.Switch
	id    simnet.NodeID
	shard int
	tier  Tier
}

// addTrunk wires the directed trunk from→to with the next pathlet ID and
// ECN-feedback stamping, so per-(pathlet, TC) congestion state forms at MTP
// senders for every hop. The pathlet and rank counters advance whether or
// not this shard materializes the link, so both match the one-shard build.
// A trunk into a switch another shard owns is a boundary egress: its queue
// and wire live here, and delivery crosses by the remote hook. A trunk out
// of one is a boundary ingress: a mirror of the owning shard's egress, with
// the same name, config and rank, so injected deliveries are
// indistinguishable from local ones; it is not a Trunk (its queue is always
// empty here). The cut indexes both.
func (f *Fabric) addTrunk(spec LinkSpec, from, to trunkEnd, pod int, name string) *simnet.Link {
	id := f.nextPathlet
	f.nextPathlet++
	rank := f.allocRank()
	if from.sw == nil && to.sw == nil {
		return nil
	}
	pathlet := id
	lcfg := spec.link(rank)
	lcfg.Pathlet, lcfg.StampECN = &pathlet, true
	if from.sw == nil {
		l := f.Net.Connect(to.sw, lcfg, name)
		f.cut.In[rank] = l
		return l
	}
	var l *simnet.Link
	if to.sw != nil {
		l = f.Net.Connect(to.sw, lcfg, name)
	} else {
		lcfg.Remote = f.remote
		l = f.Net.Connect(remoteNode{id: to.id}, lcfg, name)
		f.cut.Out[l] = CutPort{Rank: rank, DstShard: to.shard}
	}
	from.sw.AddEgress(l)
	f.trunks = append(f.trunks, &Trunk{
		Link: l, From: from.sw, To: to.sw,
		FromTier: from.tier, ToTier: to.tier, Pod: pod, Pathlet: id,
	})
	return l
}

// leafRoute is the route function of a leaf (fat-tree edge) whose hosts are
// the n host indices from base: a host's access link for those, every uplink
// for any other host, nothing for a destination that is no host. Host IDs
// follow the switch IDs contiguously, in host-index order.
func (f *Fabric) leafRoute(base, n int, ups []*simnet.Link) func(simnet.NodeID) []*simnet.Link {
	hostBase, nHosts := f.hostIDs[0], len(f.hostIDs)
	return func(dst simnet.NodeID) []*simnet.Link {
		hi := int(dst - hostBase)
		if uint(hi) >= uint(nHosts) {
			return nil
		}
		if uint(hi-base) < uint(n) {
			return f.hostDown[hi : hi+1]
		}
		return ups
	}
}

// reservePools sizes the packet pool and event arena from what this shard
// owns, so the hot path never grows either mid-run: roughly one in-flight
// packet per host plus a queue share per link, and one pending event per
// link plus a few timers per host. Both are capped — a one-shard k=64 build
// would otherwise reserve tens of MB it may never touch.
func (f *Fabric) reservePools() {
	ownedHosts := 0
	for _, h := range f.hosts {
		if h != nil {
			ownedHosts++
		}
	}
	nLinks := len(f.Net.Links())
	f.Net.PreallocPackets(min(ownedHosts+nLinks/4+256, 1<<16))
	f.Eng.Reserve(min(nLinks+4*ownedHosts+1024, 1<<18))
}
