package topo

import (
	"testing"
	"time"

	"mtp/internal/core"
	"mtp/internal/fault"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
)

// TestLeafSpinePathCounts checks the equal-cost path structure of a
// generated leaf-spine: one path inside a rack, exactly Spines paths across
// racks, and no forwarding loops anywhere.
func TestLeafSpinePathCounts(t *testing.T) {
	const leaves, spines, perLeaf = 4, 3, 2
	f := NewLeafSpine(LeafSpineConfig{Leaves: leaves, Spines: spines, HostsPerLeaf: perLeaf})
	if got := f.NumHosts(); got != leaves*perLeaf {
		t.Fatalf("hosts = %d, want %d", got, leaves*perLeaf)
	}
	if err := f.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < f.NumHosts(); s++ {
		for d := 0; d < f.NumHosts(); d++ {
			if s == d {
				continue
			}
			want := 1
			if f.HostPod(s) != f.HostPod(d) {
				want = spines
			}
			if got := f.CountPaths(s, d); got != want {
				t.Fatalf("paths %d->%d = %d, want %d", s, d, got, want)
			}
		}
	}
}

// TestFatTreePathCounts checks the canonical k-ary fat-tree path counts:
// 1 under one edge, k/2 within a pod, (k/2)² across pods — and loop
// freedom over every pair.
func TestFatTreePathCounts(t *testing.T) {
	const k = 4
	f := NewFatTree(FatTreeConfig{K: k})
	if got, want := f.NumHosts(), k*k*k/4; got != want {
		t.Fatalf("hosts = %d, want %d", got, want)
	}
	if got, want := len(f.Switches(TierSpine)), k*k/4; got != want {
		t.Fatalf("cores = %d, want %d", got, want)
	}
	if err := f.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	half := k / 2
	edgeOf := func(h int) int { return h / half }
	for s := 0; s < f.NumHosts(); s++ {
		for d := 0; d < f.NumHosts(); d++ {
			if s == d {
				continue
			}
			var want int
			switch {
			case edgeOf(s) == edgeOf(d):
				want = 1
			case f.HostPod(s) == f.HostPod(d):
				want = half
			default:
				want = half * half
			}
			if got := f.CountPaths(s, d); got != want {
				t.Fatalf("paths %d->%d = %d, want %d", s, d, got, want)
			}
		}
	}
}

// TestPathletIDsUniqueAndStable checks the pathlet contract: IDs are unique
// per (switch, egress) across the whole fabric, every trunk's link stamps
// its own ID, and rebuilding the same config reproduces the assignment
// exactly.
func TestPathletIDsUniqueAndStable(t *testing.T) {
	build := func() *Fabric {
		return NewFatTree(FatTreeConfig{K: 4, Seed: 3})
	}
	f := build()
	seen := make(map[uint32]string)
	for _, tr := range f.Trunks() {
		if prev, dup := seen[tr.Pathlet]; dup {
			t.Fatalf("pathlet %d reused: %s and %s", tr.Pathlet, prev, tr.Link.Name())
		}
		seen[tr.Pathlet] = tr.Link.Name()
		cfg := tr.Link.Config()
		if cfg.Pathlet == nil || *cfg.Pathlet != tr.Pathlet {
			t.Fatalf("trunk %s link does not stamp its pathlet ID %d", tr.Link.Name(), tr.Pathlet)
		}
		if tr.From == tr.To {
			t.Fatalf("trunk %s connects a switch to itself", tr.Link.Name())
		}
	}
	g := build()
	if len(f.Trunks()) != len(g.Trunks()) {
		t.Fatalf("rebuild changed trunk count: %d vs %d", len(f.Trunks()), len(g.Trunks()))
	}
	for i, tr := range f.Trunks() {
		gr := g.Trunks()[i]
		if tr.Pathlet != gr.Pathlet || tr.Link.Name() != gr.Link.Name() ||
			tr.From.ID() != gr.From.ID() || tr.To.ID() != gr.To.ID() {
			t.Fatalf("trunk %d differs across rebuilds: %+v vs %+v", i, tr, gr)
		}
	}
}

// TestFabricFaultTargets checks the per-tier/per-pod selectors, then uses
// them end to end: crash one spine of a leaf-spine mid-transfer and verify
// MTP's pathlet failover still completes every message over the survivor.
func TestFabricFaultTargets(t *testing.T) {
	f := NewLeafSpine(LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 2, Seed: 5})
	if got := len(f.TierTrunks(TierLeaf)); got != 4 {
		t.Fatalf("leaf uplinks = %d, want 4", got)
	}
	if got := len(f.PodTrunks(0)); got != 4 {
		t.Fatalf("pod 0 trunks = %d, want 4 (2 up + 2 down)", got)
	}

	delivered := 0
	var hosts []*simhost.MTPHost
	for i, h := range f.Hosts() {
		hosts = append(hosts, simhost.AttachMTP(f.Net, h, core.Config{
			LocalPort: uint16(100 + i), RTO: time.Millisecond,
			FailoverRTOs: 2, ProbeInterval: 4 * time.Millisecond,
			OnMessage: func(m *core.InMessage) { delivered++ },
		}))
	}
	// Cross-rack pairs so every message transits a spine.
	const msgs, size = 4, 200 << 10
	for i := 0; i < 2; i++ {
		for k := 0; k < msgs; k++ {
			hosts[i].EP.SendSynthetic(f.Host(2+i).ID(), uint16(100+2+i), size, core.SendOptions{})
			hosts[2+i].EP.SendSynthetic(f.Host(i).ID(), uint16(100+i), size, core.SendOptions{})
		}
	}
	in := fault.NewInjector(f.Eng, 5)
	in.CrashSwitch(f.Switches(TierSpine)[0], 200*time.Microsecond, 0) // never revives
	f.Eng.Run(100 * time.Millisecond)

	if want := 4 * msgs; delivered != want {
		t.Fatalf("delivered %d of %d messages despite surviving spine", delivered, want)
	}
	for i, mh := range hosts {
		if mh.EP.Pending() != 0 {
			t.Fatalf("host %d still has %d pending messages", i, mh.EP.Pending())
		}
	}
}

// TestFabricPolicyPerSwitch verifies each switch gets its own policy
// instance (stateful policies must not be shared).
func TestFabricPolicyPerSwitch(t *testing.T) {
	var built []simnet.ForwardPolicy
	f := NewLeafSpine(LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1,
		Policy: func() simnet.ForwardPolicy {
			p := simnet.NewMessageLB()
			built = append(built, p)
			return p
		}})
	want := len(f.Switches(TierLeaf)) + len(f.Switches(TierSpine))
	if len(built) != want {
		t.Fatalf("policy factory called %d times, want %d", len(built), want)
	}
	for i, a := range built {
		for _, b := range built[i+1:] {
			if a == b {
				t.Fatal("policy instance shared between switches")
			}
		}
	}
}

// TestEdgeCrashFlushesHostQueues: a fat-tree edge's host downlinks are its
// egresses, so crashing the edge drops the packets queued toward its hosts
// and counts them as the switch's fault drops.
func TestEdgeCrashFlushesHostQueues(t *testing.T) {
	f := NewFatTree(FatTreeConfig{K: 4})
	edge := f.Switches(TierLeaf)[0]
	_, down := f.HostLinks(0)
	const sent = 8
	for i := 0; i < sent; i++ {
		p := f.Net.AllocPacket()
		p.Dst, p.Size = f.HostID(0), 1500
		edge.Receive(p, nil)
	}
	queued := down.QueueLen()
	if queued != sent-1 { // the first is on the wire
		t.Fatalf("%d packets queued toward host 0, want %d", queued, sent-1)
	}
	fault.NewInjector(f.Eng, 1).CrashSwitch(edge, time.Nanosecond, 0)
	f.Eng.Run(2 * time.Nanosecond)
	if down.QueueLen() != 0 || edge.FaultDrops != uint64(queued) || down.Stats().FaultDrops != uint64(queued) {
		t.Fatalf("after the crash: queue %d, switch drops %d, link drops %d; want 0, %d, %d",
			down.QueueLen(), edge.FaultDrops, down.Stats().FaultDrops, queued, queued)
	}
}
