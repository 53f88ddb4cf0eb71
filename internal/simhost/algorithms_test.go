package simhost

import (
	"testing"
	"time"

	"mtp/internal/cc"
	"mtp/internal/core"
	"mtp/internal/sim"
	"mtp/internal/simnet"
	"mtp/internal/wire"
)

// swiftPipe builds a bottleneck that stamps delay feedback.
func swiftPipe(seed int64, rate float64, qcap int) (*sim.Engine, *simnet.Network, *simnet.Host, *simnet.Host, *simnet.Link) {
	eng := sim.NewEngine(seed)
	net := simnet.NewNetwork(eng)
	a := simnet.NewHost(net)
	b := simnet.NewHost(net)
	path := uint32(1)
	l := net.Connect(b, simnet.LinkConfig{
		Rate: rate, Delay: us(5), QueueCap: qcap,
		Pathlet: &path, StampECN: true, StampDelay: true,
	}, "a->b")
	a.SetUplink(l)
	b.SetUplink(net.Connect(a, simnet.LinkConfig{Rate: rate, Delay: us(5), QueueCap: qcap}, "b->a"))
	return eng, net, a, b, l
}

// TestSwiftKeepsQueueDelayNearTarget: a Swift-controlled sender on a link
// stamping delay feedback should fill the pipe while keeping queueing delay
// in the neighbourhood of the target.
func TestSwiftKeepsQueueDelayNearTarget(t *testing.T) {
	eng, net, ha, hb, link := swiftPipe(1, 10e9, 4096)
	factory := func(wire.PathTC) cc.Algorithm {
		return cc.NewSwift(cc.Config{MSS: 1460})
	}
	var sender *MTPHost
	sender = AttachMTP(net, ha, core.Config{
		LocalPort: 1, CCFactory: factory, RTO: 5 * time.Millisecond,
		OnMessageSent: func(*core.OutMessage) {
			sender.EP.SendSynthetic(hb.ID(), 2, 1<<20, core.SendOptions{})
		},
	})
	receiver := AttachMTP(net, hb, core.Config{LocalPort: 2})
	for i := 0; i < 8; i++ {
		sender.EP.SendSynthetic(hb.ID(), 2, 1<<20, core.SendOptions{})
	}

	// Sample the queue depth during steady state.
	var samples []int
	var tick func()
	tick = func() {
		samples = append(samples, link.QueueLen())
		if eng.Now() < 19*time.Millisecond {
			eng.Schedule(100*time.Microsecond, tick)
		}
	}
	eng.Schedule(5*time.Millisecond, tick) // skip warmup
	eng.Run(20 * time.Millisecond)

	gbps := float64(receiver.EP.Stats.PayloadBytes) * 8 / (20 * time.Millisecond).Seconds() / 1e9
	if gbps < 7 {
		t.Fatalf("Swift goodput %.1f Gbps of 10", gbps)
	}
	// Swift's 25µs delay target at 10 Gbps ≈ 21 packets of queue. Require the mean
	// queue to be in a sane band: not empty, not orders beyond target.
	sum := 0
	for _, s := range samples {
		sum += s
	}
	mean := float64(sum) / float64(len(samples))
	if mean < 1 || mean > 120 {
		t.Fatalf("mean queue %.1f pkts; Swift not tracking the delay target", mean)
	}
}

// TestRCPFlowsConvergeToFairShare: N senders over one RCP link all adopt
// the advertised fair rate.
func TestRCPFlowsConvergeToFairShare(t *testing.T) {
	eng := sim.NewEngine(2)
	net := simnet.NewNetwork(eng)
	sw := simnet.NewSwitch(net, nil)
	rcv := simnet.NewHost(net)
	path := uint32(1)
	down := net.Connect(rcv, simnet.LinkConfig{
		Rate: 10e9, Delay: us(5), QueueCap: 4096,
		Pathlet: &path, StampRate: true, StampECN: true,
	}, "bottleneck")
	sw.AddRoute(rcv.ID(), down)
	rcv.SetUplink(net.Connect(sw, simnet.LinkConfig{Rate: 10e9, Delay: us(5), QueueCap: 4096}, "rcv->sw"))

	const flows = 4
	perFlow := make([]uint64, flows)
	receiver := AttachMTP(net, rcv, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) {
		perFlow[m.SrcPort-10] += uint64(m.Size)
	}})
	_ = receiver
	factory := func(wire.PathTC) cc.Algorithm { return cc.NewRCP(cc.Config{MSS: 1460}) }
	senders := make([]*MTPHost, flows)
	for i := 0; i < flows; i++ {
		h := simnet.NewHost(net)
		h.SetUplink(net.Connect(sw, simnet.LinkConfig{Rate: 10e9, Delay: us(1), QueueCap: 1024}, "up"))
		sw.AddRoute(h.ID(), net.Connect(h, simnet.LinkConfig{Rate: 10e9, Delay: us(1), QueueCap: 1024}, "downh"))
		i := i
		var mh *MTPHost
		mh = AttachMTP(net, h, core.Config{
			LocalPort: uint16(10 + i), CCFactory: factory, RTO: 5 * time.Millisecond,
			OnMessageSent: func(*core.OutMessage) {
				mh.EP.SendSynthetic(rcv.ID(), 2, 1<<19, core.SendOptions{})
			},
		})
		senders[i] = mh
		for k := 0; k < 4; k++ {
			mh.EP.SendSynthetic(rcv.ID(), 2, 1<<19, core.SendOptions{})
		}
	}
	dur := 20 * time.Millisecond
	eng.Run(dur)

	var total uint64
	var minB, maxB uint64
	for i, b := range perFlow {
		total += b
		if i == 0 || b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
	}
	gbps := float64(total) * 8 / dur.Seconds() / 1e9
	if gbps < 6.5 {
		t.Fatalf("aggregate %.1f Gbps of 10", gbps)
	}
	if minB == 0 || float64(maxB)/float64(minB) > 2.5 {
		t.Fatalf("unfair split under RCP: %v", perFlow)
	}
	// Every sender learned an explicit rate near the 2.5 Gbps fair share.
	for i, mh := range senders {
		st, ok := mh.EP.Table().Lookup(wire.PathTC{PathID: 1})
		if !ok {
			t.Fatalf("sender %d has no RCP pathlet state", i)
		}
		bps, hasRate := st.Algo.Rate()
		if !hasRate {
			t.Fatalf("sender %d never learned a rate", i)
		}
		if bps < 0.5e9 || bps > 6e9 {
			t.Fatalf("sender %d rate = %.2f Gbps, want near fair share", i, bps/1e9)
		}
	}
}

// TestDCQCNHoldsBottleneckWithShortQueue: a DCQCN-paced sender on an
// ECN-marking bottleneck sustains high utilization while the marks keep its
// rate — and therefore the queue — bounded.
func TestDCQCNHoldsBottleneckWithShortQueue(t *testing.T) {
	eng := sim.NewEngine(7)
	net := simnet.NewNetwork(eng)
	a := simnet.NewHost(net)
	b := simnet.NewHost(net)
	path := uint32(1)
	l := net.Connect(b, simnet.LinkConfig{
		Rate: 10e9, Delay: us(5), QueueCap: 512, ECNThreshold: 30,
		Pathlet: &path, StampECN: true,
	}, "a->b")
	a.SetUplink(l)
	b.SetUplink(net.Connect(a, simnet.LinkConfig{Rate: 10e9, Delay: us(5), QueueCap: 512}, "b->a"))

	factory := func(wire.PathTC) cc.Algorithm {
		return cc.NewDCQCN(cc.Config{MSS: 1460})
	}
	var sender *MTPHost
	sender = AttachMTP(net, a, core.Config{
		LocalPort: 1, CCFactory: factory, RTO: 5 * time.Millisecond,
		OnMessageSent: func(*core.OutMessage) {
			sender.EP.SendSynthetic(b.ID(), 2, 1<<20, core.SendOptions{})
		},
	})
	receiver := AttachMTP(net, b, core.Config{LocalPort: 2})
	for i := 0; i < 6; i++ {
		sender.EP.SendSynthetic(b.ID(), 2, 1<<20, core.SendOptions{})
	}
	var maxQ int
	var tick func()
	tick = func() {
		if q := l.QueueLen(); q > maxQ {
			maxQ = q
		}
		if eng.Now() < 19*time.Millisecond {
			eng.Schedule(50*time.Microsecond, tick)
		}
	}
	eng.Schedule(5*time.Millisecond, tick)
	dur := 20 * time.Millisecond
	eng.Run(dur)
	gbps := float64(receiver.EP.Stats.PayloadBytes) * 8 / dur.Seconds() / 1e9
	if gbps < 7.5 {
		t.Fatalf("DCQCN goodput %.1f Gbps of 10", gbps)
	}
	if maxQ > 400 {
		t.Fatalf("queue peaked at %d of 512: DCQCN not controlling", maxQ)
	}
	st, ok := sender.EP.Table().Lookup(wire.PathTC{PathID: 1})
	if !ok || st.Algo.Name() != "dcqcn" {
		t.Fatal("DCQCN state missing")
	}
}

// TestPacedSendingSpacesPackets: with a rate-based algorithm, data packets
// leave the host paced rather than in line-rate bursts.
func TestPacedSendingSpacesPackets(t *testing.T) {
	eng := sim.NewEngine(3)
	net := simnet.NewNetwork(eng)
	a := simnet.NewHost(net)
	b := simnet.NewHost(net)
	path := uint32(1)
	// Host uplink is 100 Gbps; the advertised RCP rate will be ~10 Gbps, so
	// pacing (not the link) must do the spacing.
	l := net.Connect(b, simnet.LinkConfig{
		Rate: 100e9, Delay: us(2), QueueCap: 4096,
		Pathlet: &path, StampRate: true,
	}, "a->b")
	// Lie about capacity in rate feedback by using a 10G helper link? The
	// fair rate equals 95% of the link rate for one flow; use a 10G link
	// with big queue instead and watch queue occupancy stay low thanks to
	// pacing.
	_ = l
	l2 := net.Connect(b, simnet.LinkConfig{
		Rate: 10e9, Delay: us(2), QueueCap: 4096,
		Pathlet: &path, StampRate: true,
	}, "a->b-10g")
	a.SetUplink(l2)
	b.SetUplink(net.Connect(a, simnet.LinkConfig{Rate: 10e9, Delay: us(2), QueueCap: 4096}, "b->a"))

	factory := func(wire.PathTC) cc.Algorithm { return cc.NewRCP(cc.Config{MSS: 1460}) }
	var sender *MTPHost
	sender = AttachMTP(net, a, core.Config{
		LocalPort: 1, CCFactory: factory, RTO: 5 * time.Millisecond,
		OnMessageSent: func(*core.OutMessage) {
			sender.EP.SendSynthetic(b.ID(), 2, 1<<20, core.SendOptions{})
		},
	})
	AttachMTP(net, b, core.Config{LocalPort: 2})
	for i := 0; i < 4; i++ {
		sender.EP.SendSynthetic(b.ID(), 2, 1<<20, core.SendOptions{})
	}
	var maxQ int
	var tick func()
	tick = func() {
		if q := l2.QueueLen(); q > maxQ {
			maxQ = q
		}
		if eng.Now() < 15*time.Millisecond {
			eng.Schedule(20*time.Microsecond, tick)
		}
	}
	eng.Schedule(5*time.Millisecond, tick)
	eng.Run(15 * time.Millisecond)
	// Paced traffic at ~95% of line rate keeps the queue shallow; an
	// unpaced window of 1MB+ would pile hundreds of packets.
	if maxQ > 200 {
		t.Fatalf("queue peaked at %d packets; pacing ineffective", maxQ)
	}
}
