// Package baseline implements a simplified TCP byte-stream transport with
// Reno and DCTCP congestion control, plus the TCP termination proxy used in
// the paper's Figure 2. It is the point of comparison for MTP in every
// experiment: same simulator, same links, different transport semantics.
//
// The model captures what the experiments depend on — a single per-flow
// congestion window, cumulative ACKs with duplicate-ACK fast retransmit,
// slow start and AIMD/DCTCP window evolution, advertised receive windows,
// and sequence-number semantics that break under payload mutation — without
// kernel-level details that do not affect the measured shapes.
package baseline

import (
	"fmt"
	"sync"

	"mtp/internal/simnet"
)

// Segment is the TCP-model packet payload carried in simnet.Packet.Payload.
// The packet owns it (simnet.OwnedPayload): a segment lives exactly as long as
// the packet carrying it and is recycled with it, so a handler copies the
// fields it needs rather than keeping the segment.
type Segment struct {
	// Conn identifies the connection (both directions share it).
	Conn uint64
	// Seq is the byte offset of the first payload byte.
	Seq int64
	// Len is the payload length in bytes.
	Len int
	// Ack marks an acknowledgement; AckNo is cumulative (next expected byte).
	Ack   bool
	AckNo int64
	// ECNEcho reports congestion-experienced back to the sender.
	ECNEcho bool
	// Wnd is the receiver's advertised window in bytes (flow control).
	Wnd int64
	// WndUpdate marks a pure window-update ACK (not counted as a duplicate
	// ACK by the sender).
	WndUpdate bool
	// Syn/SynAck model the one-RTT connection setup.
	Syn    bool
	SynAck bool
	// Fin marks the end of the stream (Seq+Len is the final size).
	Fin bool
	// GlobalSeq is the offset of this segment's bytes in the MPTCP-level
	// stream (-1 / unset for single-path connections).
	GlobalSeq int64

	// released guards against recycling one segment twice.
	released bool
}

// segPool recycles segments between the packets that carry them. A sync.Pool
// rather than a list on the Network: a segment that crossed shards is released
// on another goroutine than the one that drew it, and the pool empties itself
// over garbage collections, so a finished fabric's segments do not stay live.
var segPool = sync.Pool{New: func() any { return new(Segment) }}

// newSegment returns a recycled segment holding s.
func newSegment(s Segment) *Segment {
	p := segPool.Get().(*Segment)
	*p = s
	return p
}

// Copy implements simnet.OwnedPayload.
func (s *Segment) Copy() simnet.OwnedPayload { return newSegment(*s) }

// Recycle implements simnet.OwnedPayload. A second release panics, as it does
// for a pooled packet.
func (s *Segment) Recycle(poison bool) {
	if s.released {
		panic("baseline: double release of segment")
	}
	if poison {
		*s = Segment{
			Conn: ^uint64(0), Seq: -0x5EAD, Len: -0x5EAD, AckNo: -0x5EAD, Wnd: -0x5EAD, GlobalSeq: -0x5EAD,
			Ack: true, ECNEcho: true, WndUpdate: true, Syn: true, SynAck: true, Fin: true,
			released: true,
		}
		return
	}
	s.released = true
	segPool.Put(s)
}

// String renders a trace-friendly summary.
func (s *Segment) String() string {
	switch {
	case s.Syn && s.SynAck:
		return fmt.Sprintf("conn %d SYNACK wnd=%d", s.Conn, s.Wnd)
	case s.Syn:
		return fmt.Sprintf("conn %d SYN", s.Conn)
	case s.Ack:
		return fmt.Sprintf("conn %d ACK %d wnd=%d ecn=%v", s.Conn, s.AckNo, s.Wnd, s.ECNEcho)
	default:
		return fmt.Sprintf("conn %d DATA seq=%d len=%d fin=%v", s.Conn, s.Seq, s.Len, s.Fin)
	}
}

const (
	// mss is the payload bytes per data segment (TCP, MPTCP subflow) and per
	// QUIC packet.
	mss = 1460
	// headerBytes models TCP/IP header overhead on data and ack segments.
	headerBytes = 40
	// ackSize is the on-wire size of a pure ACK.
	ackSize = headerBytes
)
