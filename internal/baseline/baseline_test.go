package baseline

import (
	"math/rand"
	"testing"
	"time"

	"mtp/internal/cc"
	"mtp/internal/sim"
	"mtp/internal/simnet"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// twoHosts builds sender host -> link -> receiver host with a reverse link.
func twoHosts(seed int64, fwd, rev simnet.LinkConfig) (*sim.Engine, *simnet.Host, *simnet.Host) {
	eng := sim.NewEngine(seed)
	net := simnet.NewNetwork(eng)
	a := simnet.NewHost(net)
	b := simnet.NewHost(net)
	a.SetUplink(net.Connect(b, fwd, "a->b"))
	b.SetUplink(net.Connect(a, rev, "b->a"))
	return eng, a, b
}

func TestStreamTransfer(t *testing.T) {
	eng, a, b := twoHosts(1,
		simnet.LinkConfig{Rate: 10e9, Delay: us(10), QueueCap: 4096},
		simnet.LinkConfig{Rate: 10e9, Delay: us(10), QueueCap: 4096},
	)
	var doneAt time.Duration
	var finAt time.Duration
	var total int64
	snd := NewSender(eng, a, SenderConfig{
		Conn: 1, Dst: b.ID(),
		OnComplete: func(now time.Duration) { doneAt = now },
	})
	rcv := NewReceiver(eng, b, ReceiverConfig{
		Conn: 1, Src: a.ID(),
		OnFin: func(now time.Duration, n int64) { finAt, total = now, n },
	})
	a.SetHandler(snd.OnPacket)
	b.SetHandler(rcv.OnPacket)

	snd.Write(1 << 20)
	snd.Close()
	eng.Run(100 * time.Millisecond)
	if total != 1<<20 {
		t.Fatalf("received %d bytes", total)
	}
	if doneAt == 0 || finAt == 0 || doneAt < finAt {
		t.Fatalf("completion times: fin=%v done=%v", finAt, doneAt)
	}
	if snd.SegsRetx != 0 {
		t.Fatalf("unexpected retransmissions: %d", snd.SegsRetx)
	}
	if rcv.Delivered() != 1<<20 {
		t.Fatalf("delivered %d", rcv.Delivered())
	}
}

func TestHandshakeCostsOneRTT(t *testing.T) {
	eng, a, b := twoHosts(2,
		simnet.LinkConfig{Rate: 100e9, Delay: us(50), QueueCap: 256},
		simnet.LinkConfig{Rate: 100e9, Delay: us(50), QueueCap: 256},
	)
	var finAt time.Duration
	snd := NewSender(eng, a, SenderConfig{Conn: 1, Dst: b.ID()})
	rcv := NewReceiver(eng, b, ReceiverConfig{Conn: 1, Src: a.ID(),
		OnFin: func(now time.Duration, _ int64) { finAt = now }})
	a.SetHandler(snd.OnPacket)
	b.SetHandler(rcv.OnPacket)
	snd.Write(100)
	snd.Close()
	eng.Run(10 * time.Millisecond)
	// SYN (50µs) + SYNACK (50µs) + DATA (50µs) ≈ 150µs minimum.
	if finAt < us(150) {
		t.Fatalf("fin at %v: handshake skipped?", finAt)
	}
	if finAt > us(200) {
		t.Fatalf("fin at %v: too slow", finAt)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	eng, a, b := twoHosts(3,
		simnet.LinkConfig{Rate: 100e9, Delay: us(10), QueueCap: 1024},
		simnet.LinkConfig{Rate: 100e9, Delay: us(10), QueueCap: 1024},
	)
	snd := NewSender(eng, a, SenderConfig{Conn: 1, Dst: b.ID(), SkipHandshake: true})
	rcv := NewReceiver(eng, b, ReceiverConfig{Conn: 1, Src: a.ID()})
	a.SetHandler(snd.OnPacket)
	b.SetHandler(rcv.OnPacket)
	w0 := snd.Algo().Window()
	snd.Write(4 << 20)
	snd.Close()
	eng.Run(ms(2))
	if snd.Algo().Window() < 4*w0 {
		t.Fatalf("window %v did not grow in slow start (w0=%v)", snd.Algo().Window(), w0)
	}
}

func TestDCTCPRespondsToMarks(t *testing.T) {
	// Bottleneck with low ECN threshold: window stabilizes near BDP instead
	// of oscillating deep.
	eng, a, b := twoHosts(4,
		simnet.LinkConfig{Rate: 1e9, Delay: us(10), QueueCap: 256, ECNThreshold: 10},
		simnet.LinkConfig{Rate: 1e9, Delay: us(10), QueueCap: 256},
	)
	snd := NewSender(eng, a, SenderConfig{Conn: 1, Dst: b.ID(), SkipHandshake: true, CC: cc.KindDCTCP})
	rcv := NewReceiver(eng, b, ReceiverConfig{Conn: 1, Src: a.ID()})
	a.SetHandler(snd.OnPacket)
	b.SetHandler(rcv.OnPacket)
	snd.Write(50 << 20)
	eng.Run(ms(20))
	// 1 Gbps for 20ms = 2.5 MB max. Expect near-full utilization: >= 60%.
	if got := rcv.Delivered(); got < 15<<17 {
		t.Fatalf("delivered %d, want near line rate", got)
	}
	// The queue must be kept short by ECN: no drops.
	if snd.Timeouts > 2 {
		t.Fatalf("timeouts = %d", snd.Timeouts)
	}
}

func TestFastRetransmitOnReordering(t *testing.T) {
	// Spraying across two unequal paths reorders segments and triggers
	// spurious fast retransmits — the reordering penalty of Figure 6.
	eng := sim.NewEngine(5)
	net := simnet.NewNetwork(eng)
	a := simnet.NewHost(net)
	b := simnet.NewHost(net)
	sw := simnet.NewSwitch(net, &simnet.Spray{})
	a.SetUplink(net.Connect(sw, simnet.LinkConfig{Rate: 100e9, Delay: us(1), QueueCap: 1024}, "a->sw"))
	sw.AddRoute(b.ID(), net.Connect(b, simnet.LinkConfig{Rate: 100e9, Delay: us(1), QueueCap: 1024}, "p1"))
	sw.AddRoute(b.ID(), net.Connect(b, simnet.LinkConfig{Rate: 100e9, Delay: us(30), QueueCap: 1024}, "p2"))
	b.SetUplink(net.Connect(a, simnet.LinkConfig{Rate: 100e9, Delay: us(1), QueueCap: 1024}, "b->a"))

	snd := NewSender(eng, a, SenderConfig{Conn: 1, Dst: b.ID(), SkipHandshake: true})
	rcv := NewReceiver(eng, b, ReceiverConfig{Conn: 1, Src: a.ID()})
	a.SetHandler(snd.OnPacket)
	b.SetHandler(rcv.OnPacket)
	snd.Write(2 << 20)
	snd.Close()
	eng.Run(ms(50))
	if rcv.OooSegs == 0 {
		t.Fatal("no reordering observed under spraying")
	}
	if snd.FastRetx == 0 {
		t.Fatal("no spurious fast retransmits under reordering")
	}
	if rcv.DupSegs == 0 {
		t.Fatal("spurious retransmits should arrive as duplicates")
	}
}

func TestLossRecovery(t *testing.T) {
	// Tiny queue forces drops; the stream must still complete.
	eng, a, b := twoHosts(6,
		simnet.LinkConfig{Rate: 1e9, Delay: us(10), QueueCap: 8},
		simnet.LinkConfig{Rate: 1e9, Delay: us(10), QueueCap: 64},
	)
	done := false
	snd := NewSender(eng, a, SenderConfig{
		Conn: 1, Dst: b.ID(), SkipHandshake: true, RTO: 500 * time.Microsecond,
		CC: cc.KindAIMD,
	})
	rcv := NewReceiver(eng, b, ReceiverConfig{Conn: 1, Src: a.ID(),
		OnFin: func(time.Duration, int64) { done = true }})
	a.SetHandler(snd.OnPacket)
	b.SetHandler(rcv.OnPacket)
	snd.Write(1 << 20)
	snd.Close()
	eng.Run(time.Second)
	if !done {
		t.Fatalf("stream did not complete: acked=%d/%d retx=%d timeouts=%d",
			snd.Acked(), int64(1<<20), snd.SegsRetx, snd.Timeouts)
	}
	if snd.SegsRetx == 0 {
		t.Fatal("expected drops and retransmissions with an 8-packet queue")
	}
}

func TestReceiveWindowBlocksSender(t *testing.T) {
	eng, a, b := twoHosts(7,
		simnet.LinkConfig{Rate: 10e9, Delay: us(10), QueueCap: 1024},
		simnet.LinkConfig{Rate: 10e9, Delay: us(10), QueueCap: 1024},
	)
	snd := NewSender(eng, a, SenderConfig{Conn: 1, Dst: b.ID(), SkipHandshake: true})
	rcv := NewReceiver(eng, b, ReceiverConfig{Conn: 1, Src: a.ID(), WindowLimit: 64 << 10})
	a.SetHandler(snd.OnPacket)
	b.SetHandler(rcv.OnPacket)
	snd.Write(10 << 20)
	eng.Run(ms(20))
	// Application never consumes: the receiver fills to its window and the
	// sender must stop — HOL blocking in miniature.
	if got := rcv.Buffered(); got > 70<<10 {
		t.Fatalf("receiver buffered %d despite 64K window", got)
	}
	if snd.Outstanding() > 80<<10 {
		t.Fatalf("sender kept %d in flight past a closed window", snd.Outstanding())
	}
	// Opening the window resumes transfer.
	rcv.Consume(32 << 10)
	before := rcv.Delivered()
	eng.Run(ms(40))
	if rcv.Delivered() <= before {
		t.Fatal("transfer did not resume after Consume")
	}
}

func TestProxyUnlimitedWindowBufferGrows(t *testing.T) {
	// 100 Gbps client link, 40 Gbps server link (Figure 2 setup).
	eng := sim.NewEngine(8)
	net := simnet.NewNetwork(eng)
	client := simnet.NewHost(net)
	proxy := simnet.NewHost(net)
	sink := simnet.NewHost(net)
	client.SetUplink(net.Connect(proxy, simnet.LinkConfig{Rate: 100e9, Delay: us(5), QueueCap: 4096, ECNThreshold: 64}, "c->p"))
	proxyToClient := net.Connect(client, simnet.LinkConfig{Rate: 100e9, Delay: us(5), QueueCap: 4096}, "p->c")
	proxyToSink := net.Connect(sink, simnet.LinkConfig{Rate: 40e9, Delay: us(5), QueueCap: 4096, ECNThreshold: 64}, "p->s")
	sink.SetUplink(net.Connect(proxy, simnet.LinkConfig{Rate: 40e9, Delay: us(5), QueueCap: 4096}, "s->p"))

	emitProxy := Route{Pool: proxy, Emit: func(pkt *simnet.Packet) {
		if pkt.Dst == client.ID() {
			proxyToClient.Enqueue(pkt)
		} else {
			proxyToSink.Enqueue(pkt)
		}
	}}
	p := NewProxy(eng, emitProxy, ProxyConfig{
		ClientConn: 1, ServerConn: 2,
		ClientSrc: client.ID(), ServerDst: sink.ID(),
		SendBuffer: 1 << 40, // effectively unbounded proxy memory
	})
	proxy.SetHandler(p.Handle)
	snd := NewSender(eng, client, SenderConfig{Conn: 1, Dst: proxy.ID(), SkipHandshake: true})
	client.SetHandler(snd.OnPacket)
	sinkRcv := NewReceiver(eng, sink, ReceiverConfig{Conn: 2, Src: proxy.ID()})
	sink.SetHandler(sinkRcv.OnPacket)

	snd.Write(1 << 30)
	occAt1ms := int64(0)
	eng.Schedule(ms(1), func() { occAt1ms = p.Occupancy() })
	eng.Run(ms(2))
	occAt2ms := p.Occupancy()
	// Rate mismatch 100 vs 40 Gbps ⇒ occupancy grows ~7.5 MB/ms.
	if occAt1ms < 1<<20 {
		t.Fatalf("occupancy at 1ms = %d, expected MBs of buildup", occAt1ms)
	}
	if occAt2ms < occAt1ms+(1<<20) {
		t.Fatalf("occupancy not growing: %d -> %d", occAt1ms, occAt2ms)
	}
}

func TestProxyLimitedWindowBoundsBufferButBlocks(t *testing.T) {
	eng := sim.NewEngine(9)
	net := simnet.NewNetwork(eng)
	client := simnet.NewHost(net)
	proxy := simnet.NewHost(net)
	sink := simnet.NewHost(net)
	client.SetUplink(net.Connect(proxy, simnet.LinkConfig{Rate: 100e9, Delay: us(5), QueueCap: 4096}, "c->p"))
	proxyToClient := net.Connect(client, simnet.LinkConfig{Rate: 100e9, Delay: us(5), QueueCap: 4096}, "p->c")
	proxyToSink := net.Connect(sink, simnet.LinkConfig{Rate: 40e9, Delay: us(5), QueueCap: 4096}, "p->s")
	sink.SetUplink(net.Connect(proxy, simnet.LinkConfig{Rate: 40e9, Delay: us(5), QueueCap: 4096}, "s->p"))
	emitProxy := Route{Pool: proxy, Emit: func(pkt *simnet.Packet) {
		if pkt.Dst == client.ID() {
			proxyToClient.Enqueue(pkt)
		} else {
			proxyToSink.Enqueue(pkt)
		}
	}}
	p := NewProxy(eng, emitProxy, ProxyConfig{
		ClientConn: 1, ServerConn: 2,
		ClientSrc: client.ID(), ServerDst: sink.ID(),
		ReceiveWindow: 128 << 10,
		SendBuffer:    128 << 10,
	})
	proxy.SetHandler(p.Handle)
	snd := NewSender(eng, client, SenderConfig{Conn: 1, Dst: proxy.ID(), SkipHandshake: true})
	client.SetHandler(snd.OnPacket)
	sinkRcv := NewReceiver(eng, sink, ReceiverConfig{Conn: 2, Src: proxy.ID()})
	sink.SetHandler(sinkRcv.OnPacket)

	snd.Write(1 << 30)
	eng.Run(ms(2))
	// Bounded memory...
	if occ := p.Occupancy(); occ > 300<<10 {
		t.Fatalf("occupancy %d exceeds configured buffers", occ)
	}
	// ...but the client is throttled (HOL blocking): it cannot run at
	// 100 Gbps; it is pinned near the server-side drain rate.
	sent := snd.Acked()
	gbps := float64(sent*8) / ms(2).Seconds() / 1e9
	if gbps > 60 {
		t.Fatalf("client ran at %.1f Gbps despite closed window", gbps)
	}
	if sinkRcv.Delivered() == 0 {
		t.Fatal("nothing reached the sink")
	}
}

func TestDemuxRoutesByConn(t *testing.T) {
	d := NewDemux()
	var got []uint64
	d.Add(1, func(p *simnet.Packet) { got = append(got, 1) })
	d.Add(2, func(p *simnet.Packet) { got = append(got, 2) })
	d.Handle(&simnet.Packet{Payload: &Segment{Conn: 2}})
	d.Handle(&simnet.Packet{Payload: &Segment{Conn: 1}})
	d.Handle(&simnet.Packet{Payload: &Segment{Conn: 9}}) // unknown: ignored
	d.Handle(&simnet.Packet{Payload: "junk"})            // non-segment: ignored
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestSenderStringAndAccessors(t *testing.T) {
	if (&Segment{Syn: true}).String() == "" ||
		(&Segment{Ack: true}).String() == "" ||
		(&Segment{Len: 5}).String() == "" ||
		(&Segment{Syn: true, SynAck: true, Ack: true}).String() == "" {
		t.Fatal("empty segment strings")
	}
}

// TestSegmentLivesWithItsPacket: a segment is released with the packet that
// carries it, the duplicate fault gives the copy a segment of its own, poison
// turns a released segment into sentinels, and a second release panics. The
// handler keeps the segments past their release on purpose, to look at them.
func TestSegmentLivesWithItsPacket(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.NewNetwork(eng)
	a, b := simnet.NewHost(net), simnet.NewHost(net)
	l := net.Connect(b, simnet.LinkConfig{Rate: 10e9, Delay: us(1)}, "a->b")
	l.SetDuplicate(1, rand.New(rand.NewSource(1)))
	a.SetUplink(l)
	var got []*Segment
	b.SetHandler(func(pkt *simnet.Packet) { got = append(got, pkt.Payload.(*Segment)) })
	simnet.SetPoisonFreed(true)
	defer simnet.SetPoisonFreed(false)

	NewSender(eng, a, SenderConfig{Conn: 7, Dst: b.ID(), SkipHandshake: true}).Write(100)
	eng.Run(us(500))
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("want the segment and its duplicate's own copy, got %v", got)
	}
	for i, seg := range got {
		if seg.Conn != ^uint64(0) || seg.Seq != -0x5EAD {
			t.Errorf("segment %d after its release reads %v, want sentinels", i, seg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a second release did not panic")
		}
	}()
	got[0].Recycle(false)
}
