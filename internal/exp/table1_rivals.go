package exp

import (
	"fmt"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/cc"
	"mtp/internal/simnet"
)

// The probes below measure what is particular to the two upgraded rival rows
// of Table 1: coupled MPTCP's isolation cell (its other cells share the
// probes in table1_mptcp.go) and a QUIC-like transport (multiplexed streams,
// one connection, one CC context). Coupling fixes MPTCP's bottleneck fairness
// between *connections* but not per-entity isolation; QUIC fixes TCP's
// intra-connection HoL at the retransmission layer but keeps one flow ID, one
// window, and in-order-per-stream delivery — so its whole row stays ✗ for
// in-network computing purposes.

// probeIsolationMPTCPCoupled measures what coupling does and does not buy:
// one coupled connection (2 subflows) sharing a single bottleneck with one
// plain DCTCP flow takes roughly one flow's share (RFC 6356 "do no harm") —
// but shares still scale with connection count, so an entity opening more
// connections still takes proportionally more. Isolation needs per-entity
// policy in the network, which no end-host coupling can provide.
func probeIsolationMPTCPCoupled() Table1Cell {
	r := newRig(4)
	edge := simnet.LinkConfig{Rate: 40e9, Delay: time.Microsecond, QueueCap: 4096}
	snd, rcv, _ := r.pair(edge, simnet.LinkConfig{Rate: 10e9, Delay: time.Microsecond, QueueCap: 256, ECNThreshold: 40})

	conns := []uint64{10, 11}
	m := baseline.NewMPTCP(r.eng, snd, baseline.MPTCPConfig{
		Conns: conns, Dst: rcv.ID(), RTO: 2 * time.Millisecond,
		CCConfig: cc.Config{MaxWindow: 256 << 10},
		Coupling: baseline.CouplingOLIA,
	})
	mr := baseline.NewMPTCPReceiver(r.eng, rcv, snd.ID(), conns)
	tcp := baseline.NewSender(r.eng, snd, baseline.SenderConfig{
		Conn: 20, Dst: rcv.ID(), SkipHandshake: true, RTO: 2 * time.Millisecond,
		CCConfig: cc.Config{MaxWindow: 256 << 10},
	})
	tr := baseline.NewReceiver(r.eng, rcv, baseline.ReceiverConfig{Conn: 20, Src: snd.ID()})

	sndMux := baseline.NewDemux()
	for i, s := range m.Subflows() {
		sndMux.Add(conns[i], s.OnPacket)
	}
	sndMux.Add(20, tcp.OnPacket)
	snd.SetHandler(sndMux.Handle)
	rcv.SetHandler(func(pkt *simnet.Packet) {
		mr.OnPacket(pkt)
		tr.OnPacket(pkt)
	})

	m.Write(64 << 20)
	tcp.Write(64 << 20)
	r.eng.Run(10 * time.Millisecond)

	ratio := float64(m.AckedGlobal()) / float64(tr.Delivered()+1)
	return Table1Cell{
		Feature: table1Features[4],
		Pass:    false,
		Evidence: fmt.Sprintf("coupling caps one connection at no more than a flow share (2 subflows took %.1fx of a single flow) — but shares still scale per connection, so 8 conns take ~8x (Fig 7 mechanism)",
			ratio),
	}
}

// --- QUIC row ---

// probeMutationQUIC halves stream-frame lengths in flight. Acks are by
// packet number, so the sender happily believes the transfer completed —
// while the receiver's streams are full of holes and never finish. The
// mutation hazard is worse than TCP's: TCP at least wedges loudly.
func probeMutationQUIC() Table1Cell {
	r := newRig(1)
	a, b, sw := r.pair(probeLink, probeLink)
	sw.Interposer = func(pkt *simnet.Packet, _ *simnet.Link) bool {
		if qp, ok := pkt.Payload.(*baseline.QUICPacket); ok && !qp.Ack && qp.Len > 1 {
			qp.Len /= 2
			pkt.Size -= qp.Len
		}
		return true
	}
	senderDone := 0
	snd, rcv := r.quicConn(a, b, baseline.QUICSenderConfig{
		OnStreamComplete: func(time.Duration, uint64) { senderDone++ },
	})
	snd.OpenStream(1, 256<<10)
	r.eng.Run(50 * time.Millisecond)
	return Table1Cell{
		Feature: table1Features[0],
		Pass:    rcv.StreamsDone == 1,
		Evidence: fmt.Sprintf("frames shrunk in flight: sender believed %d stream(s) complete, receiver finished %d (holds %d KB of holes)",
			senderDone, rcv.StreamsDone, rcv.Buffered>>10),
	}
}

// probeBufferingQUIC drops one mid-stream data packet after the window has
// grown: per-stream in-order delivery forces the receiver to buffer a full
// window of bytes behind the hole until the retransmission arrives — the
// same HoL memory bill as TCP, merely scoped to a stream.
func probeBufferingQUIC() Table1Cell {
	r := newRig(2)
	a, b, sw := r.pair(probeLink, probeLink)
	dropped := false
	sw.Interposer = func(pkt *simnet.Packet, _ *simnet.Link) bool {
		if qp, ok := pkt.Payload.(*baseline.QUICPacket); ok && !qp.Ack && qp.Offset >= 256<<10 && !dropped {
			dropped = true
			return false
		}
		return true
	}
	snd, rcv := r.quicConn(a, b, baseline.QUICSenderConfig{})
	snd.OpenStream(1, 1<<20)
	r.eng.Run(20 * time.Millisecond)
	return Table1Cell{
		Feature: table1Features[1],
		Pass:    rcv.StreamsDone == 1 && rcv.MaxBuffered < 64<<10,
		Evidence: fmt.Sprintf("one lost packet forced %d KB of reassembly buffer behind the hole (stream done=%v)",
			rcv.MaxBuffered>>10, rcv.StreamsDone == 1),
	}
}

// probeIndependenceQUIC steers even-numbered streams to a second replica,
// the way a message-aware LB would split requests. Stream frames carry
// offsets into sender-held retransmission state tied to the one connection:
// the steered streams' data lands on a replica with no connection state,
// their acks never return, and the shared window collapses — stranding the
// whole connection, not just the steered streams.
func probeIndependenceQUIC() Table1Cell {
	r := newRig(3)
	hosts, sw := r.star(3, probeLink)
	a, r1, r2 := hosts[0], hosts[1], hosts[2]
	sw.Interposer = func(pkt *simnet.Packet, _ *simnet.Link) bool {
		if qp, ok := pkt.Payload.(*baseline.QUICPacket); ok && !qp.Ack && qp.Stream%2 == 0 {
			pkt.Dst = r2.ID()
		}
		return true
	}
	snd, rcv1 := r.quicConn(a, r1, baseline.QUICSenderConfig{})
	var r2got int
	r2.SetHandler(func(pkt *simnet.Packet) {
		if qp, ok := pkt.Payload.(*baseline.QUICPacket); ok && !qp.Ack {
			r2got += qp.Len
		}
	})
	const streams = 8
	for id := uint64(1); id <= streams; id++ {
		snd.OpenStream(id, 32<<10)
	}
	r.eng.Run(20 * time.Millisecond)
	return Table1Cell{
		Feature: table1Features[2],
		Pass:    rcv1.StreamsDone == streams, // steering must not strand anything
		Evidence: fmt.Sprintf("steering alternating streams to a 2nd replica stranded the connection: %d/%d streams completed; replica2 holds %d KB it cannot ack",
			rcv1.StreamsDone, streams, r2got>>10),
	}
}

// probeMultiResourceQUIC runs one connection across a time-division path
// switch alternating between a 40G and a 5G path (the Fig 5 scenario). One
// congestion window must size to two resources at once and mis-sizes on
// every flip.
func probeMultiResourceQUIC() Table1Cell {
	rig := newTwoPath(twoPathSpec{
		FastRate: 40e9, SlowRate: 5e9, LinkDelay: time.Microsecond, SlowDelay: time.Microsecond,
		QueueCap: 256, ECNThreshold: 40, EdgeRate: 45e9, EdgeQueue: 4096,
		Seed: 4, Policy: simnet.Alternator{Period: 500 * time.Microsecond},
	})
	var snd *baseline.QUICSender
	next := uint64(0)
	openNext := func() {
		next++
		snd.OpenStream(next, 1<<20)
	}
	snd, rcv := rig.quicConn(rig.snd, rig.rcv, baseline.QUICSenderConfig{
		CCConfig:         cc.Config{MaxWindow: 256 << 10},
		OnStreamComplete: func(time.Duration, uint64) { openNext() },
	})
	for i := 0; i < 4; i++ {
		openNext()
	}
	dur := 5 * time.Millisecond
	rig.eng.Run(dur)
	gbps := float64(rcv.Arrived) * 8 / dur.Seconds() / 1e9
	return Table1Cell{
		Feature: table1Features[3],
		Pass:    false, // one window across two resources mis-sizes on every flip
		Evidence: fmt.Sprintf("single window across alternating 40G/5G paths: %.1f Gbps of a 22.5G time-average (%d retx)",
			gbps, snd.PktsRetx),
	}
}
