package baseline

import (
	"fmt"
	"time"

	"mtp/internal/cc"
	"mtp/internal/sim"
	"mtp/internal/simnet"
	"mtp/internal/span"
)

// This file implements a QUIC-like baseline: many streams multiplexed over
// ONE connection with ONE congestion-control context, packet-number-based
// acknowledgements, per-stream retransmission, and per-stream flow control.
// Loss on one stream never blocks delivery on another (QUIC's fix for TCP's
// retransmit-layer head-of-line blocking), but all streams still share the
// connection's 5-tuple — one FlowID — so the network pins every stream to
// one path and one replica, and a single window governs them all. That is
// exactly the gap between QUIC and MTP's per-message model, which is why
// this is the sharpest rival to measure against.

// quicHeaderBytes models QUIC short-header + stream-frame overhead.
const quicHeaderBytes = 40

// quicAckSize is the on-wire size of a pure ACK packet.
const quicAckSize = 40

// quicPktThreshold is QUIC's packet-reordering threshold: an unacked packet
// is declared lost once a packet numbered this much higher has been acked
// (RFC 9002 kPacketThreshold).
const quicPktThreshold = 3

// quicStreamWindow is the per-stream flow-control window: the credit a
// sender assumes before the receiver's first MaxStreamData arrives, and how
// far past its contiguous prefix a receiver accepts a stream's bytes (and
// advertises in MaxStreamData).
const quicStreamWindow = 1 << 20

// QUICPacket is the QUIC-model payload carried in simnet.Packet.Payload:
// either one stream frame or one ACK (optionally carrying a flow-control
// update for the acked stream).
type QUICPacket struct {
	// Conn identifies the connection (both directions share it).
	Conn uint64
	// PktNum is the monotonically increasing packet number (data packets;
	// never reused, even for retransmissions).
	PktNum uint64
	// Ack marks an acknowledgement of packet AckPkt; AckLargest is the
	// largest packet number the receiver has seen (drives loss detection).
	Ack        bool
	AckPkt     uint64
	AckLargest uint64
	// ECNEcho reports congestion-experienced back to the sender.
	ECNEcho bool
	// Stream/Offset/Len describe the stream frame in a data packet (and
	// name the acked stream in an ACK).
	Stream uint64
	Offset int64
	Len    int
	// Fin marks Offset+Len as the final size of the stream.
	Fin bool
	// MaxStreamData advertises the receiver's flow-control limit for
	// Stream (absolute byte offset; 0 means no update).
	MaxStreamData int64
}

// ConnID implements connPayload for Demux routing.
func (q *QUICPacket) ConnID() uint64 { return q.Conn }

// String renders a trace-friendly summary.
func (q *QUICPacket) String() string {
	if q.Ack {
		return fmt.Sprintf("conn %d ACK pkt=%d largest=%d maxsd=%d", q.Conn, q.AckPkt, q.AckLargest, q.MaxStreamData)
	}
	return fmt.Sprintf("conn %d pkt=%d stream=%d off=%d len=%d fin=%v", q.Conn, q.PktNum, q.Stream, q.Offset, q.Len, q.Fin)
}

// QUICSenderConfig parameterizes the sending half of a connection.
type QUICSenderConfig struct {
	// Conn is the connection ID (also the FlowID of every packet: one
	// 5-tuple for all streams).
	Conn uint64
	// Dst is the destination node.
	Dst simnet.NodeID
	// CC picks the single connection-wide window algorithm. Default DCTCP.
	CC       cc.Kind
	CCConfig cc.Config
	// RTO is the retransmission-timeout backstop. Default 1ms.
	RTO time.Duration
	// OnStreamComplete fires when every byte of a stream is acknowledged.
	OnStreamComplete func(now time.Duration, stream uint64)
}

func (c QUICSenderConfig) withDefaults() QUICSenderConfig {
	if c.CC == "" {
		c.CC = cc.KindDCTCP
	}
	if c.RTO <= 0 {
		c.RTO = time.Millisecond
	}
	return c
}

// qSent records one in-flight data packet.
type qSent struct {
	pkt    uint64
	stream uint64
	off    int64
	n      int
	fin    bool
	sentAt time.Duration
	rtx    bool // carries retransmitted bytes (Karn: no RTT sample)
	acked  bool
	lost   bool
}

// qOutStream is the sending state of one stream.
type qOutStream struct {
	id     uint64
	size   int64
	next   int64 // next fresh offset to send
	acked  span.Set[int64]
	credit int64               // flow-control limit (absolute offset)
	rtx    []span.Range[int64] // lost bytes, oldest first
	done   bool
}

// QUICSender is the sending half of one QUIC-model connection. All streams
// share its single congestion window; each stream retransmits its own lost
// frames independently.
type QUICSender struct {
	cfg  QUICSenderConfig
	eng  *sim.Engine
	port Port
	algo cc.Algorithm

	nextPkt      uint64 // starts at 1; 0 is "no packet" in pure credit acks
	largestAcked uint64
	hasAck       bool
	// inflight holds unresolved data packets in packet-number order — an
	// ordered slice, never a map, so loss scans are deterministic.
	inflight []*qSent
	byPkt    map[uint64]*qSent
	bytesOut int64

	streams map[uint64]*qOutStream
	order   []uint64 // stream open order (scheduling priority)
	srtt    time.Duration

	rtxTimer sim.Timer

	// Stats
	PktsSent uint64
	PktsRetx uint64
	AcksRcvd uint64
	FastRetx uint64
	Timeouts uint64
}

// NewQUICSender builds a sender that transmits packets through port.
func NewQUICSender(eng *sim.Engine, port Port, cfg QUICSenderConfig) *QUICSender {
	cfg = cfg.withDefaults()
	ccCfg := cfg.CCConfig
	ccCfg.MSS = mss
	algo, err := cc.New(cfg.CC, ccCfg)
	if err != nil {
		panic("baseline: " + err.Error())
	}
	return &QUICSender{
		cfg:     cfg,
		eng:     eng,
		port:    port,
		algo:    algo,
		nextPkt: 1,
		byPkt:   make(map[uint64]*qSent),
		streams: make(map[uint64]*qOutStream),
	}
}

// OpenStream starts stream id carrying size bytes and pumps transmission.
// Stream IDs must be unique per connection.
func (s *QUICSender) OpenStream(id uint64, size int64) {
	if _, ok := s.streams[id]; ok {
		panic("baseline: duplicate QUIC stream")
	}
	if size <= 0 {
		panic("baseline: QUIC stream needs bytes")
	}
	s.streams[id] = &qOutStream{id: id, size: size, credit: quicStreamWindow}
	s.order = append(s.order, id)
	s.pump()
}

// pump sends frames while the connection window has room: retransmissions
// first (oldest stream first), then fresh data in stream-open order,
// respecting each stream's flow-control credit.
func (s *QUICSender) pump() {
	for {
		wnd := int64(s.algo.Window())
		if s.bytesOut >= wnd {
			break
		}
		if !s.sendNext() {
			break
		}
	}
	if s.bytesOut > 0 {
		s.armRTO()
	}
}

// sendNext emits one frame; false when no stream has sendable data.
func (s *QUICSender) sendNext() bool {
	// Lost frames retransmit first: they gate stream completion.
	for _, id := range s.order {
		st := s.streams[id]
		if st == nil || st.done || len(st.rtx) == 0 {
			continue
		}
		sp := st.rtx[0]
		n := min(int64(mss), sp.Last-sp.First+1)
		if sp.First+n > sp.Last {
			st.rtx = st.rtx[1:]
		} else {
			st.rtx[0].First += n
		}
		s.sendFrame(st, sp.First, int(n), sp.First+n == st.size, true)
		return true
	}
	for _, id := range s.order {
		st := s.streams[id]
		if st == nil || st.done || st.next >= st.size || st.next >= st.credit {
			continue
		}
		n := int64(mss)
		if st.size-st.next < n {
			n = st.size - st.next
		}
		if st.credit-st.next < n {
			n = st.credit - st.next
		}
		off := st.next
		st.next += n
		s.sendFrame(st, off, int(n), off+n == st.size, false)
		return true
	}
	return false
}

func (s *QUICSender) sendFrame(st *qOutStream, off int64, n int, fin, rtx bool) {
	pn := s.nextPkt
	s.nextPkt++
	rec := &qSent{pkt: pn, stream: st.id, off: off, n: n, fin: fin, sentAt: s.eng.Now(), rtx: rtx}
	s.inflight = append(s.inflight, rec)
	s.byPkt[pn] = rec
	s.bytesOut += int64(n)
	s.PktsSent++
	if rtx {
		s.PktsRetx++
	}
	pkt := s.port.AllocPacket()
	pkt.Dst, pkt.Size = s.cfg.Dst, n+quicHeaderBytes
	pkt.Payload = &QUICPacket{
		Conn: s.cfg.Conn, PktNum: pn,
		Stream: st.id, Offset: off, Len: n, Fin: fin,
	}
	pkt.ECNCapable, pkt.FlowID = true, s.cfg.Conn
	s.port.Send(pkt)
}

// OnPacket handles an arriving ACK for this connection.
func (s *QUICSender) OnPacket(pkt *simnet.Packet) {
	if pkt.Corrupted {
		return // failed checksum
	}
	qp, ok := pkt.Payload.(*QUICPacket)
	if !ok || qp.Conn != s.cfg.Conn || !qp.Ack {
		return
	}
	now := s.eng.Now()
	s.AcksRcvd++
	if qp.AckLargest > s.largestAcked {
		s.largestAcked = qp.AckLargest
		s.hasAck = true
	}

	// Flow-control update for the acked stream.
	if qp.MaxStreamData > 0 {
		if st := s.streams[qp.Stream]; st != nil && qp.MaxStreamData > st.credit {
			st.credit = qp.MaxStreamData
		}
	}

	acked := 0
	if rec := s.byPkt[qp.AckPkt]; rec != nil && !rec.acked {
		rec.acked = true
		acked = rec.n
		if !rec.lost {
			s.bytesOut -= int64(rec.n)
			if !rec.rtx {
				sample := now - rec.sentAt
				if s.srtt == 0 {
					s.srtt = sample
				} else {
					s.srtt = (7*s.srtt + sample) / 8
				}
			}
		}
		if st := s.streams[rec.stream]; st != nil && !st.done {
			st.acked.Add(rec.off, rec.off+int64(rec.n)-1)
			if st.acked.Prefix() >= st.size {
				s.completeStream(now, st)
			}
		}
	}
	s.algo.OnAck(now, cc.Signal{AckedBytes: acked, ECN: qp.ECNEcho, RTT: s.srtt})
	s.detectLoss(now)
	s.pump()
	if s.bytesOut == 0 && !s.havePending() {
		s.rtxTimer.Stop()
	}
}

// detectLoss walks the in-flight queue front (lowest packet numbers first)
// and declares packets lost once the reordering threshold is crossed,
// queueing their stream bytes for retransmission in new packets.
func (s *QUICSender) detectLoss(now time.Duration) {
	lossEvent := false
	for len(s.inflight) > 0 {
		h := s.inflight[0]
		if h.acked || h.lost {
			if h.acked {
				delete(s.byPkt, h.pkt)
			}
			s.inflight = s.inflight[1:]
			continue
		}
		if !s.hasAck || s.largestAcked < h.pkt+quicPktThreshold {
			break // packet numbers ahead are even newer
		}
		h.lost = true
		s.bytesOut -= int64(h.n)
		// Forget the packet entirely: a late ack for it gives no stream
		// credit (the bytes are already requeued and will be acked under a
		// new packet number), which bounds byPkt under sustained loss.
		delete(s.byPkt, h.pkt)
		if st := s.streams[h.stream]; st != nil && !st.done {
			st.rtx = append(st.rtx, span.Range[int64]{First: h.off, Last: h.off + int64(h.n) - 1})
		}
		lossEvent = true
		s.inflight = s.inflight[1:]
	}
	if lossEvent {
		s.FastRetx++
		s.algo.OnLoss(now)
	}
}

// havePending reports whether any stream still has bytes to send or
// retransmit.
func (s *QUICSender) havePending() bool {
	for _, id := range s.order {
		st := s.streams[id]
		if st != nil && !st.done && (len(st.rtx) > 0 || st.next < st.size) {
			return true
		}
	}
	return false
}

func (s *QUICSender) completeStream(now time.Duration, st *qOutStream) {
	st.done = true
	st.rtx = nil
	delete(s.streams, st.id)
	for i, id := range s.order {
		if id == st.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if s.cfg.OnStreamComplete != nil {
		s.cfg.OnStreamComplete(now, st.id)
	}
}

func (s *QUICSender) armRTO() {
	s.rtxTimer.Stop()
	s.rtxTimer = s.eng.ScheduleArg(s.cfg.RTO, quicSenderRTO, s, nil)
}

// quicSenderRTO is package-level so arming the timer allocates nothing.
func quicSenderRTO(a1, _ any) { a1.(*QUICSender).onRTO() }

// onRTO is the backstop when the ack clock stalls entirely (e.g. a tail
// loss): every in-flight packet is declared lost and its bytes requeued.
func (s *QUICSender) onRTO() {
	if len(s.inflight) == 0 {
		if s.havePending() {
			s.pump()
			s.armRTO()
		}
		return
	}
	s.Timeouts++
	s.algo.OnLoss(s.eng.Now())
	for _, rec := range s.inflight {
		if rec.acked || rec.lost {
			delete(s.byPkt, rec.pkt)
			continue
		}
		rec.lost = true
		s.bytesOut -= int64(rec.n)
		delete(s.byPkt, rec.pkt)
		if st := s.streams[rec.stream]; st != nil && !st.done {
			st.rtx = append(st.rtx, span.Range[int64]{First: rec.off, Last: rec.off + int64(rec.n) - 1})
		}
	}
	s.inflight = s.inflight[:0]
	s.pump()
	s.armRTO()
}

// QUICReceiverConfig parameterizes the receiving half of a connection.
type QUICReceiverConfig struct {
	// Conn is the connection ID.
	Conn uint64
	// Src is the sender's node (where ACKs go).
	Src simnet.NodeID
	// OnStream fires when a stream completes (all bytes up to FIN
	// contiguous).
	OnStream func(now time.Duration, stream uint64, size int64)
}

// qInStream is the receiving state of one stream.
type qInStream struct {
	got      span.Set[int64]
	finLen   int64 // -1 until FIN seen
	consumed int64
	prevOoo  int64 // last observed out-of-order buffered bytes
	done     bool
}

// QUICReceiver reassembles each stream independently and acknowledges every
// packet number, echoing ECN and advertising per-stream flow control.
type QUICReceiver struct {
	cfg  QUICReceiverConfig
	eng  *sim.Engine
	port Port

	streams map[uint64]*qInStream
	largest uint64
	hasPkt  bool

	// Stats
	PktsRcvd    uint64
	AcksSent    uint64
	DupFrames   uint64
	BadFrames   uint64
	FlowDropped uint64
	Delivered   int64 // total completed stream bytes
	StreamsDone int
	// Arrived counts new (non-duplicate) stream bytes as they land,
	// whether or not their stream has finished — the time series the
	// failover experiment meters.
	Arrived int64
	// Buffered is current out-of-order reassembly occupancy across
	// streams; MaxBuffered its peak (the HoL/buffering cost Table 1
	// charges stream transports with).
	Buffered    int64
	MaxBuffered int64
}

// NewQUICReceiver builds a receiver that acks through port.
func NewQUICReceiver(eng *sim.Engine, port Port, cfg QUICReceiverConfig) *QUICReceiver {
	return &QUICReceiver{cfg: cfg, eng: eng, port: port, streams: make(map[uint64]*qInStream)}
}

// OnPacket handles an arriving data packet for this connection.
func (r *QUICReceiver) OnPacket(pkt *simnet.Packet) {
	if pkt.Corrupted {
		return // failed checksum
	}
	qp, ok := pkt.Payload.(*QUICPacket)
	if !ok || qp.Conn != r.cfg.Conn || qp.Ack {
		return
	}
	now := r.eng.Now()
	r.PktsRcvd++
	if qp.PktNum > r.largest {
		r.largest = qp.PktNum
	}
	r.hasPkt = true

	st := r.streams[qp.Stream]
	if st == nil {
		st = &qInStream{finLen: -1}
		r.streams[qp.Stream] = st
	}
	r.ingestFrame(now, qp, st)

	// Every data packet is acked by number; the ack carries the frame's
	// stream flow-control limit and the ECN echo.
	r.sendAck(&QUICPacket{
		Conn: r.cfg.Conn, Ack: true, AckPkt: qp.PktNum, AckLargest: r.largest,
		ECNEcho: pkt.CE, Stream: qp.Stream,
		MaxStreamData: st.consumed + quicStreamWindow,
	})
}

// ingestFrame validates and reassembles one stream frame. Malformed frames
// (negative offsets/lengths, data past a FIN, conflicting FINs, frames
// beyond flow-control credit) are counted and dropped without corrupting
// stream state — the property the fuzz target hammers on.
func (r *QUICReceiver) ingestFrame(now time.Duration, qp *QUICPacket, st *qInStream) {
	if st.done {
		r.DupFrames++
		return
	}
	off, n := qp.Offset, int64(qp.Len)
	if off < 0 || n < 0 || (n == 0 && !qp.Fin) {
		r.BadFrames++
		return
	}
	end := off + n
	if qp.Fin {
		_, last, held := st.got.Bounds()
		switch {
		case st.finLen >= 0 && st.finLen != end:
			r.BadFrames++ // conflicting FIN; keep the first
		case held && last >= end:
			r.BadFrames++ // FIN below already received data
		default:
			st.finLen = end
		}
	}
	if st.finLen >= 0 && end > st.finLen {
		r.BadFrames++ // oversum: frame claims bytes past the final size
		return
	}
	if end > st.consumed+quicStreamWindow {
		r.FlowDropped++ // sender ignored flow control; protect the buffer
		return
	}
	if n == 0 {
		// pure FIN
	} else {
		beforeContig := st.got.Prefix()
		added := st.got.Add(off, end-1)
		if added == 0 {
			r.DupFrames++
		}
		r.Arrived += added
		contig := st.got.Prefix()
		ooo := st.got.Covered() - contig
		r.Buffered += ooo - st.prevOoo
		st.prevOoo = ooo
		if r.Buffered > r.MaxBuffered {
			r.MaxBuffered = r.Buffered
		}
		if contig > beforeContig {
			st.consumed = contig
		}
	}
	if st.finLen >= 0 && st.got.Prefix() >= st.finLen && !st.done {
		st.done = true
		r.StreamsDone++
		r.Delivered += st.finLen
		if r.cfg.OnStream != nil {
			r.cfg.OnStream(now, qp.Stream, st.finLen)
		}
	}
}

func (r *QUICReceiver) sendAck(qp *QUICPacket) {
	r.AcksSent++
	pkt := r.port.AllocPacket()
	pkt.Dst, pkt.Size, pkt.Payload = r.cfg.Src, quicAckSize, qp
	pkt.ECNCapable, pkt.FlowID = true, r.cfg.Conn
	r.port.Send(pkt)
}
