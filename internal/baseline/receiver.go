package baseline

import (
	"time"

	"mtp/internal/sim"
	"mtp/internal/simnet"
)

// ReceiverConfig parameterizes the receiving half of a connection.
type ReceiverConfig struct {
	// Conn is the connection ID.
	Conn uint64
	// Src is the sender's node (where ACKs go).
	Src simnet.NodeID
	// WindowLimit bounds the advertised receive window: the buffer the
	// receiver devotes to this connection. Zero means effectively unlimited
	// (2^40), which is the "unbounded proxy buffer" regime of Figure 2.
	WindowLimit int64
	// OnDeliver fires whenever in-order bytes become available to the
	// application.
	OnDeliver func(now time.Duration, n int)
	// OnFin fires when the stream completes (all bytes up to FIN in order).
	OnFin func(now time.Duration, total int64)
	// Tenant tags outgoing ACKs.
	Tenant int
}

// Receiver is the receiving half of one TCP-model connection: cumulative
// acknowledgement, out-of-order buffering, ECN echo, and advertised-window
// flow control driven by application consumption.
type Receiver struct {
	cfg  ReceiverConfig
	eng  *sim.Engine
	port Port

	rcvNxt    int64
	ooo       map[int64]int // seq -> len
	finSeq    int64         // end-of-stream position; -1 until FIN seen
	ceSeen    bool          // CE observed since last ack (DCTCP echo state)
	delivered int64         // in-order bytes made available
	consumed  int64         // bytes the application has taken
	finished  bool

	// Stats
	OooSegs  uint64
	AcksSent uint64
	DupSegs  uint64
}

// NewReceiver builds a receiver that sends ACKs through port.
func NewReceiver(eng *sim.Engine, port Port, cfg ReceiverConfig) *Receiver {
	if cfg.WindowLimit <= 0 {
		cfg.WindowLimit = 1 << 40
	}
	return &Receiver{cfg: cfg, eng: eng, port: port, ooo: make(map[int64]int), finSeq: -1}
}

// Buffered returns bytes delivered in-order but not yet consumed by the
// application — the quantity that grows without bound at the Figure 2 proxy.
func (r *Receiver) Buffered() int64 { return r.delivered - r.consumed }

// Delivered returns total in-order bytes received.
func (r *Receiver) Delivered() int64 { return r.delivered }

// Consume models the application taking n bytes out of the receive buffer,
// opening the advertised window. A pure window-update ACK notifies the
// sender, which may be stalled on a zero window.
func (r *Receiver) Consume(n int64) {
	if n <= 0 {
		return
	}
	before := r.window()
	r.consumed += n
	if r.consumed > r.delivered {
		r.consumed = r.delivered
	}
	if after := r.window(); after > before {
		r.sendAck(Segment{Conn: r.cfg.Conn, Ack: true, AckNo: r.rcvNxt, Wnd: after, WndUpdate: true})
	}
}

// window computes the advertised window from remaining buffer space.
func (r *Receiver) window() int64 {
	w := r.cfg.WindowLimit - r.Buffered()
	if w < 0 {
		w = 0
	}
	return w
}

// OnPacket handles an arriving data segment (or SYN).
func (r *Receiver) OnPacket(pkt *simnet.Packet) {
	if pkt.Corrupted {
		return // failed checksum
	}
	seg, ok := pkt.Payload.(*Segment)
	if !ok || seg.Conn != r.cfg.Conn || seg.Ack {
		return
	}
	now := r.eng.Now()
	if seg.Syn {
		r.sendAck(Segment{Conn: r.cfg.Conn, Ack: true, SynAck: true, Syn: true, Wnd: r.window()})
		return
	}
	if pkt.CE {
		r.ceSeen = true
	}
	if seg.Fin {
		r.finSeq = seg.Seq + int64(seg.Len)
	}
	switch {
	case seg.Seq == r.rcvNxt:
		r.advance(now, seg.Len)
		// Drain any contiguous out-of-order segments.
		for {
			l, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.advance(now, l)
		}
	case seg.Seq > r.rcvNxt:
		// Out of order: buffer and send a duplicate ACK.
		r.OooSegs++
		r.ooo[seg.Seq] = seg.Len
	default:
		// Already received (retransmission overlap).
		r.DupSegs++
	}
	r.sendAck(Segment{Conn: r.cfg.Conn, Ack: true, AckNo: r.rcvNxt, Wnd: r.window(), ECNEcho: r.ceSeen})
	r.ceSeen = false

	if !r.finished && r.finSeq >= 0 && r.rcvNxt >= r.finSeq {
		r.finished = true
		if r.cfg.OnFin != nil {
			r.cfg.OnFin(now, r.rcvNxt)
		}
	}
}

func (r *Receiver) advance(now time.Duration, n int) {
	r.rcvNxt += int64(n)
	r.delivered += int64(n)
	if r.cfg.OnDeliver != nil {
		r.cfg.OnDeliver(now, n)
	}
}

func (r *Receiver) sendAck(seg Segment) {
	r.AcksSent++
	pkt := r.port.AllocPacket()
	pkt.Dst, pkt.Size, pkt.Payload = r.cfg.Src, ackSize, newSegment(seg)
	pkt.ECNCapable, pkt.Tenant, pkt.FlowID = true, r.cfg.Tenant, r.cfg.Conn
	r.port.Send(pkt)
}

// Demux routes packets on one host to per-connection handlers by connection
// ID. Senders and receivers of different connections can share a host.
type Demux struct {
	handlers map[uint64][]func(*simnet.Packet)
}

// NewDemux returns an empty demultiplexer usable as a simnet.Host handler.
func NewDemux() *Demux {
	return &Demux{handlers: make(map[uint64][]func(*simnet.Packet))}
}

// Add registers a handler for a connection ID.
func (d *Demux) Add(conn uint64, h func(*simnet.Packet)) {
	d.handlers[conn] = append(d.handlers[conn], h)
}

// connPayload is implemented by every baseline payload that belongs to a
// connection (TCP segments, QUIC packets); Demux routes on it.
type connPayload interface{ ConnID() uint64 }

// ConnID implements connPayload.
func (s *Segment) ConnID() uint64 { return s.Conn }

// Handle dispatches one packet (install as host.SetHandler(d.Handle)).
func (d *Demux) Handle(pkt *simnet.Packet) {
	cp, ok := pkt.Payload.(connPayload)
	if !ok {
		return
	}
	for _, h := range d.handlers[cp.ConnID()] {
		h(pkt)
	}
}
