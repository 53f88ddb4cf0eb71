package simnet

import (
	"testing"
	"time"

	"mtp/internal/sim"
	"mtp/internal/wire"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// collector is a host handler that records arrivals with timestamps.
type collector struct {
	eng  *sim.Engine
	pkts []*Packet
	at   []time.Duration
}

func (c *collector) handle(p *Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.eng.Now())
}

func pipe(t *testing.T, cfg LinkConfig) (*sim.Engine, *Host, *Host, *collector) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	a := NewHost(net)
	b := NewHost(net)
	l := net.Connect(b, cfg, "a->b")
	a.SetUplink(l)
	col := &collector{eng: eng}
	b.SetHandler(col.handle)
	return eng, a, b, col
}

func TestLinkDelaysAndOrder(t *testing.T) {
	// 1 Gbps, 10 µs delay: a 1250-byte packet serializes in 10 µs.
	eng, a, b, col := pipe(t, LinkConfig{Rate: 1e9, Delay: us(10)})
	p1 := &Packet{Dst: b.ID(), Size: 1250}
	p2 := &Packet{Dst: b.ID(), Size: 1250}
	a.Send(p1)
	a.Send(p2)
	eng.Run(time.Millisecond)
	if len(col.pkts) != 2 {
		t.Fatalf("delivered %d packets", len(col.pkts))
	}
	if col.pkts[0] != p1 || col.pkts[1] != p2 {
		t.Fatal("FIFO violated")
	}
	// First packet: 10 µs serialization + 10 µs propagation.
	if col.at[0] != us(20) {
		t.Fatalf("first arrival at %v, want 20µs", col.at[0])
	}
	// Second: waits for first to serialize, so 20 µs + 10 µs.
	if col.at[1] != us(30) {
		t.Fatalf("second arrival at %v, want 30µs", col.at[1])
	}
	if a.Uplink().Stats().TxPackets != 2 || a.Uplink().Stats().TxBytes != 2500 {
		t.Fatalf("stats = %+v", a.Uplink().Stats())
	}
}

func TestLinkDropTail(t *testing.T) {
	eng, a, b, col := pipe(t, LinkConfig{Rate: 1e9, Delay: us(1), QueueCap: 4})
	for i := 0; i < 20; i++ {
		a.Send(&Packet{Dst: b.ID(), Size: 1250})
	}
	eng.Run(time.Millisecond)
	st := a.Uplink().Stats()
	// One in flight + 4 queued admitted at t=0; the rest dropped... as the
	// queue drains more cannot arrive (all sent at t=0), so 5 delivered.
	if len(col.pkts) != 5 {
		t.Fatalf("delivered %d, want 5", len(col.pkts))
	}
	if st.Drops != 15 {
		t.Fatalf("drops = %d, want 15", st.Drops)
	}
}

func TestECNMarking(t *testing.T) {
	eng, a, b, col := pipe(t, LinkConfig{Rate: 1e9, Delay: us(1), QueueCap: 100, ECNThreshold: 3})
	for i := 0; i < 10; i++ {
		a.Send(&Packet{Dst: b.ID(), Size: 1250, ECNCapable: true})
	}
	eng.Run(time.Millisecond)
	marked := 0
	for _, p := range col.pkts {
		if p.CE {
			marked++
		}
	}
	// Queue occupancy at enqueue: pkt0 transmits immediately; pkts 1..9
	// queue at lengths 0..8, so those with length >= 3 get marked: 6.
	if marked != 6 {
		t.Fatalf("marked = %d, want 6", marked)
	}
	if got := a.Uplink().Stats().Marks; got != 6 {
		t.Fatalf("mark counter = %d", got)
	}
}

func TestECNRequiresCapability(t *testing.T) {
	eng, a, b, col := pipe(t, LinkConfig{Rate: 1e9, Delay: us(1), QueueCap: 100, ECNThreshold: 1})
	for i := 0; i < 5; i++ {
		a.Send(&Packet{Dst: b.ID(), Size: 1250}) // not ECN capable
	}
	eng.Run(time.Millisecond)
	for _, p := range col.pkts {
		if p.CE {
			t.Fatal("CE set on non-capable packet")
		}
	}
}

func TestMTPPathletStamping(t *testing.T) {
	path := uint32(42)
	eng, a, b, col := pipe(t, LinkConfig{
		Rate: 1e9, Delay: us(1), QueueCap: 100, ECNThreshold: 2,
		Pathlet: &path, StampECN: true, StampDelay: true,
	})
	for i := 0; i < 6; i++ {
		hdr := &wire.Header{Type: wire.TypeData, MsgID: uint64(i), MsgPkts: 1, TC: 3, PktLen: 1000}
		a.Send(&Packet{Dst: b.ID(), Size: 1040, Hdr: hdr, ECNCapable: true})
	}
	eng.Run(time.Millisecond)
	if len(col.pkts) != 6 {
		t.Fatalf("delivered %d", len(col.pkts))
	}
	want := wire.PathTC{PathID: 42, TC: 3}
	// First packet saw an empty queue: ECN entry present but unmarked.
	var first = col.pkts[0]
	foundECN := false
	for _, f := range first.Hdr.PathFeedback {
		if f.Path == want && f.Type == wire.FeedbackECN {
			foundECN = true
			if f.ECNMarked() {
				t.Fatal("first packet marked despite empty queue")
			}
		}
	}
	if !foundECN {
		t.Fatal("pathlet identity not stamped on uncongested packet")
	}
	// A later packet that queued at depth >= 2 must carry a mark and delay.
	last := col.pkts[5]
	gotMark, gotDelay := false, false
	for _, f := range last.Hdr.PathFeedback {
		if f.Path == want && f.Type == wire.FeedbackECN && f.ECNMarked() {
			gotMark = true
		}
		if f.Path == want && f.Type == wire.FeedbackDelay && f.DelayNanos() > 0 {
			gotDelay = true
		}
	}
	if !gotMark || !gotDelay {
		t.Fatalf("last packet feedback = %+v (mark=%v delay=%v)", last.Hdr.PathFeedback, gotMark, gotDelay)
	}
}

func TestRateStamping(t *testing.T) {
	path := uint32(7)
	eng, a, b, col := pipe(t, LinkConfig{
		Rate: 10e9, Delay: us(1), Pathlet: &path, StampRate: true,
	})
	// Two sending endpoints active (distinct source ports): fair rate
	// should be ~half of 95% capacity regardless of message count.
	for i := 0; i < 10; i++ {
		hdr := &wire.Header{Type: wire.TypeData, MsgID: uint64(i), MsgPkts: 1, SrcPort: uint16(i % 2)}
		a.Send(&Packet{Dst: b.ID(), Size: 1500, Hdr: hdr, FlowID: uint64(i)})
	}
	eng.Run(time.Millisecond)
	last := col.pkts[len(col.pkts)-1]
	var rate uint64
	for _, f := range last.Hdr.PathFeedback {
		if f.Type == wire.FeedbackRate {
			rate = f.RateBps()
		}
	}
	want := 0.95 * 10e9 / 2
	if float64(rate) < want*0.9 || float64(rate) > want*1.1 {
		t.Fatalf("fair rate = %d, want ~%.0f", rate, want)
	}
}

func TestTrimInsteadOfDrop(t *testing.T) {
	eng, a, b, col := pipe(t, LinkConfig{Rate: 1e9, Delay: us(1), QueueCap: 2, Trim: true})
	for i := 0; i < 6; i++ {
		hdr := &wire.Header{Type: wire.TypeData, MsgID: 1, PktNum: uint32(i), MsgPkts: 6, PktLen: 1400}
		a.Send(&Packet{Dst: b.ID(), Size: 1450, Hdr: hdr})
	}
	eng.Run(time.Millisecond)
	if len(col.pkts) != 6 {
		t.Fatalf("delivered %d, want 6 (trim keeps headers)", len(col.pkts))
	}
	trimmed := 0
	for _, p := range col.pkts {
		if p.Trimmed {
			trimmed++
			if p.Size >= 1450 {
				t.Fatal("trimmed packet kept its size")
			}
			found := false
			for _, f := range p.Hdr.PathFeedback {
				if f.Type == wire.FeedbackTrim {
					found = true
				}
			}
			if !found {
				t.Fatal("trimmed packet missing trim feedback")
			}
		}
	}
	if trimmed != 3 {
		t.Fatalf("trimmed = %d, want 3", trimmed)
	}
}

func TestMultiQueueRoundRobin(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	a := NewHost(net)
	b := NewHost(net)
	l := net.Connect(b, LinkConfig{
		Rate: 1e9, Delay: us(1), Queues: 2, QueueCap: 100,
		Classify: func(p *Packet) int { return p.Tenant },
	}, "a->b")
	a.SetUplink(l)
	col := &collector{eng: eng}
	b.SetHandler(col.handle)
	// Tenant 0 floods 20 packets; tenant 1 sends 5. RR must interleave.
	for i := 0; i < 20; i++ {
		a.Send(&Packet{Dst: b.ID(), Size: 1250, Tenant: 0})
	}
	for i := 0; i < 5; i++ {
		a.Send(&Packet{Dst: b.ID(), Size: 1250, Tenant: 1})
	}
	eng.Run(time.Millisecond)
	if len(col.pkts) != 25 {
		t.Fatalf("delivered %d", len(col.pkts))
	}
	// Among the first 10 deliveries, both tenants must appear ~equally.
	t1 := 0
	for _, p := range col.pkts[:10] {
		if p.Tenant == 1 {
			t1++
		}
	}
	if t1 < 4 {
		t.Fatalf("tenant 1 got %d of first 10 slots; RR broken", t1)
	}
}

func TestSwitchRoutingAndECMP(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	src := NewHost(net)
	dst := NewHost(net)
	sw := NewSwitch(net, ECMP{})
	up := net.Connect(sw, LinkConfig{Rate: 100e9, Delay: us(1)}, "src->sw")
	src.SetUplink(up)
	l1 := net.Connect(dst, LinkConfig{Rate: 100e9, Delay: us(1)}, "sw->dst.1")
	l2 := net.Connect(dst, LinkConfig{Rate: 100e9, Delay: us(1)}, "sw->dst.2")
	sw.AddRoute(dst.ID(), l1)
	sw.AddRoute(dst.ID(), l2)
	col := &collector{eng: eng}
	dst.SetHandler(col.handle)

	for flow := 0; flow < 64; flow++ {
		src.Send(&Packet{Dst: dst.ID(), Size: 500, FlowID: uint64(flow)})
	}
	eng.Run(time.Millisecond)
	s1, s2 := l1.Stats().TxPackets, l2.Stats().TxPackets
	if s1+s2 != 64 {
		t.Fatalf("forwarded %d+%d", s1, s2)
	}
	if s1 < 16 || s2 < 16 {
		t.Fatalf("ECMP badly skewed: %d vs %d", s1, s2)
	}
	// Same flow always takes the same link.
	eng2 := sim.NewEngine(1)
	_ = eng2
	for i := 0; i < 10; i++ {
		src.Send(&Packet{Dst: dst.ID(), Size: 500, FlowID: 99})
	}
	before1, before2 := l1.Stats().TxPackets, l2.Stats().TxPackets
	eng.Run(2 * time.Millisecond)
	d1, d2 := l1.Stats().TxPackets-before1, l2.Stats().TxPackets-before2
	if d1 != 0 && d2 != 0 {
		t.Fatalf("flow 99 split across links: %d/%d", d1, d2)
	}
}

func TestSprayAlternatesPerPacket(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	src := NewHost(net)
	dst := NewHost(net)
	sw := NewSwitch(net, &Spray{})
	up := net.Connect(sw, LinkConfig{Rate: 100e9, Delay: us(1)}, "src->sw")
	src.SetUplink(up)
	l1 := net.Connect(dst, LinkConfig{Rate: 100e9, Delay: us(1)}, "p1")
	l2 := net.Connect(dst, LinkConfig{Rate: 100e9, Delay: us(1)}, "p2")
	sw.AddRoute(dst.ID(), l1)
	sw.AddRoute(dst.ID(), l2)
	for i := 0; i < 10; i++ {
		src.Send(&Packet{Dst: dst.ID(), Size: 500, FlowID: 1})
	}
	eng.Run(time.Millisecond)
	if l1.Stats().TxPackets != 5 || l2.Stats().TxPackets != 5 {
		t.Fatalf("spray split %d/%d, want 5/5", l1.Stats().TxPackets, l2.Stats().TxPackets)
	}
}

func TestAlternatorFollowsClock(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	src := NewHost(net)
	dst := NewHost(net)
	sw := NewSwitch(net, Alternator{Period: us(100)})
	up := net.Connect(sw, LinkConfig{Rate: 100e9, Delay: 0}, "src->sw")
	src.SetUplink(up)
	l1 := net.Connect(dst, LinkConfig{Rate: 100e9, Delay: 0}, "p1")
	l2 := net.Connect(dst, LinkConfig{Rate: 100e9, Delay: 0}, "p2")
	sw.AddRoute(dst.ID(), l1)
	sw.AddRoute(dst.ID(), l2)
	// One packet every 30 µs for 300 µs: periods [0,100) → l1, [100,200) →
	// l2, [200,300) → l1.
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(time.Duration(i*30)*time.Microsecond, func() {
			src.Send(&Packet{Dst: dst.ID(), Size: 100, FlowID: 1})
		})
	}
	eng.Run(time.Millisecond)
	s1, s2 := l1.Stats().TxPackets, l2.Stats().TxPackets
	if s1+s2 != 10 || s2 == 0 || s1 <= s2 {
		t.Fatalf("alternator split %d/%d", s1, s2)
	}
}

func TestMessageLBKeepsMessagesAtomic(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	src := NewHost(net)
	dst := NewHost(net)
	lb := NewMessageLB()
	sw := NewSwitch(net, lb)
	up := net.Connect(sw, LinkConfig{Rate: 100e9, Delay: us(1)}, "src->sw")
	src.SetUplink(up)
	p1, p2 := uint32(1), uint32(2)
	l1 := net.Connect(dst, LinkConfig{Rate: 100e9, Delay: us(1), Pathlet: &p1}, "p1")
	l2 := net.Connect(dst, LinkConfig{Rate: 100e9, Delay: us(1), Pathlet: &p2}, "p2")
	sw.AddRoute(dst.ID(), l1)
	sw.AddRoute(dst.ID(), l2)
	col := &collector{eng: eng}
	dst.SetHandler(col.handle)

	// Two interleaved 5-packet messages: each must stay on one link.
	for pkt := 0; pkt < 5; pkt++ {
		for _, msg := range []uint64{1, 2} {
			hdr := &wire.Header{Type: wire.TypeData, MsgID: msg, SrcPort: 9, PktNum: uint32(pkt), MsgPkts: 5, PktLen: 1400}
			src.Send(&Packet{Dst: dst.ID(), Size: 1440, Hdr: hdr, FlowID: msg})
		}
	}
	eng.Run(time.Millisecond)
	if len(col.pkts) != 10 {
		t.Fatalf("delivered %d", len(col.pkts))
	}
	if l1.Stats().TxPackets != 5 || l2.Stats().TxPackets != 5 {
		t.Fatalf("LB split %d/%d, want 5/5 (one message per link)",
			l1.Stats().TxPackets, l2.Stats().TxPackets)
	}
}

func TestMessageLBPrefersIdlePath(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	src := NewHost(net)
	dst := NewHost(net)
	lb := NewMessageLB()
	sw := NewSwitch(net, lb)
	up := net.Connect(sw, LinkConfig{Rate: 400e9, Delay: 0}, "src->sw")
	src.SetUplink(up)
	// Slow link vs fast link: the LB must put the short message on the link
	// that finishes it sooner once the first big message occupies one path.
	l1 := net.Connect(dst, LinkConfig{Rate: 10e9, Delay: 0}, "p1")
	l2 := net.Connect(dst, LinkConfig{Rate: 10e9, Delay: 0}, "p2")
	sw.AddRoute(dst.ID(), l1)
	sw.AddRoute(dst.ID(), l2)

	big := &wire.Header{Type: wire.TypeData, MsgID: 1, PktNum: 0, MsgPkts: 1, PktLen: 1400, MsgBytes: 1400}
	src.Send(&Packet{Dst: dst.ID(), Size: 60000, Hdr: big, FlowID: 1})
	eng.Run(us(1)) // let the big packet land in a queue
	small := &wire.Header{Type: wire.TypeData, MsgID: 2, PktNum: 0, MsgPkts: 1, PktLen: 100, MsgBytes: 100}
	src.Send(&Packet{Dst: dst.ID(), Size: 140, Hdr: small, FlowID: 2})
	eng.Run(time.Millisecond)
	// Exactly one packet must have crossed each link.
	if l1.Stats().TxPackets != 1 || l2.Stats().TxPackets != 1 {
		t.Fatalf("split %d/%d, want 1/1", l1.Stats().TxPackets, l2.Stats().TxPackets)
	}
}

func TestPathExcludeHonored(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	src := NewHost(net)
	dst := NewHost(net)
	sw := NewSwitch(net, &Spray{})
	up := net.Connect(sw, LinkConfig{Rate: 100e9, Delay: us(1)}, "src->sw")
	src.SetUplink(up)
	pa, pb := uint32(10), uint32(11)
	l1 := net.Connect(dst, LinkConfig{Rate: 100e9, Delay: us(1), Pathlet: &pa}, "p1")
	l2 := net.Connect(dst, LinkConfig{Rate: 100e9, Delay: us(1), Pathlet: &pb}, "p2")
	sw.AddRoute(dst.ID(), l1)
	sw.AddRoute(dst.ID(), l2)
	for i := 0; i < 8; i++ {
		hdr := &wire.Header{
			Type: wire.TypeData, MsgID: uint64(i), MsgPkts: 1,
			PathExclude: []wire.PathTC{{PathID: 10, TC: 0}},
		}
		src.Send(&Packet{Dst: dst.ID(), Size: 500, Hdr: hdr})
	}
	eng.Run(time.Millisecond)
	if l1.Stats().TxPackets != 0 {
		t.Fatalf("excluded link carried %d packets", l1.Stats().TxPackets)
	}
	if l2.Stats().TxPackets != 8 {
		t.Fatalf("surviving link carried %d packets", l2.Stats().TxPackets)
	}
}

// TestFairSharePolicerSplitsAmongTenantsSeen: each tenant's share is the
// link's rate over the number of tenants seen, so three flooding tenants
// split the link in thirds and their grants sum to the link's rate.
func TestFairSharePolicerSplitsAmongTenantsSeen(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	dst := NewHost(net)
	const rate = 8e6 // bits/s: 1 MB/s
	l := net.Connect(dst, LinkConfig{Rate: rate, Delay: us(1), QueueCap: 100}, "shared")
	// A standing queue, so over-share packets are marked rather than let
	// through; the engine never runs, so it stays.
	for i := 0; i < 50; i++ {
		l.Enqueue(&Packet{Dst: dst.ID(), Size: 1000})
	}
	pol := &FairSharePolicer{}
	const size, horizon = 1000, time.Second
	granted := map[int]float64{}
	// Each tenant offers 10 MB/s, ten times the link.
	for now := time.Duration(0); now < horizon; now += 100 * time.Microsecond {
		for tenant := 1; tenant <= 3; tenant++ {
			if pol.Admit(now, &Packet{Size: size, Tenant: tenant}, l) == PolicerPass {
				granted[tenant] += size
			}
		}
	}
	third := rate / 8 * horizon.Seconds() / 3
	for tenant := 1; tenant <= 3; tenant++ {
		// The bucket starts full: a share plus at most one burst.
		if g := granted[tenant]; g < third-size || g > third+policerBurst+size {
			t.Errorf("tenant %d granted %.0f B over %v, want a third of the link (%.0f B) plus at most one burst",
				tenant, g, horizon, third)
		}
	}
}

func TestFairSharePolicer(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	src := NewHost(net)
	dst := NewHost(net)
	pol := &FairSharePolicer{}
	l := net.Connect(dst, LinkConfig{Rate: 1e9, Delay: us(1), QueueCap: 1000, Policer: pol}, "shared")
	src.SetUplink(l)
	col := &collector{eng: eng}
	dst.SetHandler(col.handle)

	// Tenant 1 floods 10× its share; tenant 0 stays in-share. Feed packets
	// over time so buckets refill for tenant 0.
	for i := 0; i < 400; i++ {
		i := i
		eng.Schedule(time.Duration(i)*us(10), func() {
			// ~1 Gbps total share each ⇒ 0.5 Gbps each ⇒ 625 B / 10 µs.
			src.Send(&Packet{Dst: dst.ID(), Size: 600, Tenant: 0, ECNCapable: true})
			for j := 0; j < 9; j++ {
				src.Send(&Packet{Dst: dst.ID(), Size: 600, Tenant: 1, ECNCapable: true})
			}
		})
	}
	eng.Run(10 * time.Millisecond)
	var marked0, marked1, n0, n1 int
	for _, p := range col.pkts {
		if p.Tenant == 0 {
			n0++
			if p.CE {
				marked0++
			}
		} else {
			n1++
			if p.CE {
				marked1++
			}
		}
	}
	if n0 == 0 || n1 == 0 {
		t.Fatalf("deliveries: %d/%d", n0, n1)
	}
	frac0 := float64(marked0) / float64(n0)
	frac1 := float64(marked1) / float64(n1)
	if frac1 <= frac0*2 {
		t.Fatalf("over-share tenant not preferentially marked: %0.3f vs %0.3f", frac0, frac1)
	}
}

func TestHostSendWithoutUplinkPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	h := NewHost(net)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	h.Send(&Packet{})
}

func TestSwitchNoRoutePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	sw := NewSwitch(net, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sw.Forward(&Packet{Dst: 99})
}

func TestInterposerConsumes(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	src := NewHost(net)
	dst := NewHost(net)
	sw := NewSwitch(net, nil)
	up := net.Connect(sw, LinkConfig{Rate: 1e9, Delay: us(1)}, "up")
	src.SetUplink(up)
	down := net.Connect(dst, LinkConfig{Rate: 1e9, Delay: us(1)}, "down")
	sw.AddRoute(dst.ID(), down)
	seen := 0
	sw.Interposer = func(p *Packet, _ *Link) bool {
		seen++
		return seen > 2 // consume the first two packets
	}
	for i := 0; i < 5; i++ {
		src.Send(&Packet{Dst: dst.ID(), Size: 100})
	}
	eng.Run(time.Millisecond)
	if down.Stats().TxPackets != 3 {
		t.Fatalf("forwarded %d, want 3", down.Stats().TxPackets)
	}
}
