package baseline

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mtp/internal/simnet"
)

func TestQUICStreamTransfer(t *testing.T) {
	link := simnet.LinkConfig{Rate: 10e9, Delay: us(10), QueueCap: 4096}
	eng, a, b := twoHosts(1, link, link)
	snd := NewQUICSender(eng, a, QUICSenderConfig{Conn: 1, Dst: b.ID()})
	rcv := NewQUICReceiver(eng, b, QUICReceiverConfig{Conn: 1, Src: a.ID()})
	var done []uint64
	snd.cfg.OnStreamComplete = func(_ time.Duration, stream uint64) { done = append(done, stream) }
	a.SetHandler(snd.OnPacket)
	b.SetHandler(rcv.OnPacket)

	snd.OpenStream(1, 1<<20)
	eng.Run(100 * time.Millisecond)
	if rcv.Delivered != 1<<20 || rcv.StreamsDone != 1 {
		t.Fatalf("delivered %d bytes, %d streams", rcv.Delivered, rcv.StreamsDone)
	}
	if len(done) != 1 || done[0] != 1 {
		t.Fatalf("sender completion hooks: %v", done)
	}
	if snd.PktsRetx != 0 {
		t.Fatalf("unexpected retransmissions: %d", snd.PktsRetx)
	}
	if snd.bytesOut != 0 {
		t.Fatalf("bytes still outstanding: %d", snd.bytesOut)
	}
}

// TestQUICStreamIndependence is the headline conformance property: loss
// confined to one stream must not corrupt or roll back delivery of the
// others, because retransmission state is per stream (no TCP-style
// cumulative sequence across the connection). Stream 3's data is eaten by
// the network for its first 2ms; streams 1 and 2 complete during the
// outage and stream 3 recovers by retransmitting only its own bytes.
func TestQUICStreamIndependence(t *testing.T) {
	link := simnet.LinkConfig{Rate: 10e9, Delay: us(10), QueueCap: 4096}
	eng, a, b := twoHosts(2, link, link)
	snd := NewQUICSender(eng, a, QUICSenderConfig{Conn: 1, Dst: b.ID()})
	rcv := NewQUICReceiver(eng, b, QUICReceiverConfig{Conn: 1, Src: a.ID()})
	completed := map[uint64]time.Duration{}
	rcv.cfg.OnStream = func(now time.Duration, stream uint64, _ int64) { completed[stream] = now }
	a.SetHandler(snd.OnPacket)
	const outage = 2 * time.Millisecond
	b.SetHandler(func(pkt *simnet.Packet) {
		if qp, ok := pkt.Payload.(*QUICPacket); ok && !qp.Ack && qp.Stream == 3 && eng.Now() < outage {
			return // the network eats stream 3's data
		}
		rcv.OnPacket(pkt)
	})

	const sz = 256 << 10
	snd.OpenStream(1, sz)
	snd.OpenStream(2, sz)
	snd.OpenStream(3, sz)
	eng.Run(50 * time.Millisecond)

	for _, id := range []uint64{1, 2, 3} {
		if _, ok := completed[id]; !ok {
			t.Fatalf("stream %d never completed (completed: %v)", id, completed)
		}
	}
	// The unaffected streams finished during the outage — stream 3's losses
	// did not take them down with it.
	if completed[1] >= outage || completed[2] >= outage {
		t.Fatalf("streams 1/2 delayed past the outage: %v / %v (outage %v)", completed[1], completed[2], outage)
	}
	if completed[3] < outage {
		t.Fatalf("stream 3 completed at %v during its own outage?", completed[3])
	}
	if rcv.Delivered != 3*sz {
		t.Fatalf("delivered %d of %d", rcv.Delivered, 3*sz)
	}
	if snd.PktsRetx == 0 {
		t.Fatal("no retransmissions despite a 2ms outage on stream 3")
	}
}

// TestQUICStreamFlowControl pins per-stream flow control: while every copy
// of stream 1's first packet is held back, the receiver's contiguous prefix
// stays at zero and so does the credit it advertises beyond one stream
// window. The sender stalls stream 1 at exactly that credit while small
// stream 2 completes — the limit is per stream, not per connection. Letting
// the hole through moves the credit and stream 1 finishes.
func TestQUICStreamFlowControl(t *testing.T) {
	const size = 2 * quicStreamWindow
	link := simnet.LinkConfig{Rate: 10e9, Delay: us(10), QueueCap: 4096}
	eng, a, b := twoHosts(3, link, link)
	snd := NewQUICSender(eng, a, QUICSenderConfig{Conn: 1, Dst: b.ID()})
	rcv := NewQUICReceiver(eng, b, QUICReceiverConfig{Conn: 1, Src: a.ID()})
	hold := true
	a.SetHandler(snd.OnPacket)
	b.SetHandler(func(pkt *simnet.Packet) {
		if qp, ok := pkt.Payload.(*QUICPacket); ok && hold && qp.Stream == 1 && qp.Offset == 0 {
			return // the hole at the head of stream 1
		}
		rcv.OnPacket(pkt)
	})

	snd.OpenStream(1, size)
	snd.OpenStream(2, 8<<10)
	eng.Run(10 * time.Millisecond)
	if got := rcv.streams[1].got.Prefix(); got != 0 {
		t.Fatalf("stream 1 contiguous prefix %d behind a held hole", got)
	}
	if _, last, _ := rcv.streams[1].got.Bounds(); last+1 != quicStreamWindow {
		t.Fatalf("stream 1 received up to offset %d; flow control should stall it at %d", last+1, quicStreamWindow)
	}
	if rcv.StreamsDone != 1 || rcv.Delivered != 8<<10 {
		t.Fatalf("stream 2 (within credit) should have completed: done=%d delivered=%d", rcv.StreamsDone, rcv.Delivered)
	}
	hold = false
	eng.Run(40 * time.Millisecond)
	if got := rcv.streams[1].got.Prefix(); got != size {
		t.Fatalf("stream 1 stuck at %d after the hole filled", got)
	}
	if rcv.StreamsDone != 2 {
		t.Fatalf("stream 1 never completed: done=%d", rcv.StreamsDone)
	}
	if rcv.FlowDropped != 0 {
		t.Fatalf("sender violated flow control %d times", rcv.FlowDropped)
	}
}

// TestQUICSingleFlowID pins the architectural limitation Table 1 charges
// QUIC with: every packet of every stream carries the same FlowID (one
// 5-tuple), so in-network ECMP/load balancers cannot steer streams
// independently — the exact contrast with MTP's per-message FlowIDs.
func TestQUICSingleFlowID(t *testing.T) {
	link := simnet.LinkConfig{Rate: 10e9, Delay: us(10), QueueCap: 4096}
	eng, a, b := twoHosts(4, link, link)
	flows := map[uint64]int{}
	snd := NewQUICSender(eng, Route{Pool: a, Emit: func(pkt *simnet.Packet) {
		flows[pkt.FlowID]++
		a.Send(pkt)
	}}, QUICSenderConfig{Conn: 7, Dst: b.ID()})
	rcv := NewQUICReceiver(eng, b, QUICReceiverConfig{Conn: 7, Src: a.ID()})
	a.SetHandler(snd.OnPacket)
	b.SetHandler(rcv.OnPacket)
	for id := uint64(1); id <= 8; id++ {
		snd.OpenStream(id, 32<<10)
	}
	eng.Run(20 * time.Millisecond)
	if rcv.StreamsDone != 8 {
		t.Fatalf("%d of 8 streams done", rcv.StreamsDone)
	}
	if len(flows) != 1 {
		t.Fatalf("streams spread over %d flow IDs; QUIC model must pin all to one", len(flows))
	}
	if flows[7] == 0 {
		t.Fatal("FlowID is not the connection ID")
	}
}

// TestQUICDeterminism runs the same lossy multiplexed transfer twice and
// requires an identical stats fingerprint — the property scenario repro
// seeds and the sharded scale suite rely on.
func TestQUICDeterminism(t *testing.T) {
	run := func() string {
		link := simnet.LinkConfig{Rate: 10e9, Delay: us(10), QueueCap: 4096}
		eng, a, b := twoHosts(5, link, link)
		snd := NewQUICSender(eng, a, QUICSenderConfig{Conn: 1, Dst: b.ID()})
		rcv := NewQUICReceiver(eng, b, QUICReceiverConfig{Conn: 1, Src: a.ID()})
		a.SetHandler(snd.OnPacket)
		n := 0
		b.SetHandler(func(pkt *simnet.Packet) {
			if qp, ok := pkt.Payload.(*QUICPacket); ok && !qp.Ack {
				n++
				if n%17 == 0 {
					return // drop every 17th data packet
				}
			}
			rcv.OnPacket(pkt)
		})
		for id := uint64(1); id <= 4; id++ {
			snd.OpenStream(id, 128<<10)
		}
		eng.Run(50 * time.Millisecond)
		return fmt.Sprintf("sent=%d retx=%d to=%d acks=%d done=%d delivered=%d dup=%d maxbuf=%d",
			snd.PktsSent, snd.PktsRetx, snd.Timeouts, snd.AcksRcvd,
			rcv.StreamsDone, rcv.Delivered, rcv.DupFrames, rcv.MaxBuffered)
	}
	one, two := run(), run()
	if one != two {
		t.Fatalf("nondeterministic QUIC run:\n%s\n%s", one, two)
	}
	want := fmt.Sprintf("done=4 delivered=%d", 4*(128<<10))
	if !strings.Contains(one, want) {
		t.Fatalf("lossy run did not deliver everything (want %q): %s", want, one)
	}
}
