package baseline

import (
	"cmp"
	"slices"
	"time"

	"mtp/internal/cc"
	"mtp/internal/sim"
	"mtp/internal/simnet"
)

// SenderConfig parameterizes a byte-stream sender.
type SenderConfig struct {
	// Conn is the connection ID; it must be unique per connection.
	Conn uint64
	// Dst is the destination node.
	Dst simnet.NodeID
	// CC picks the window algorithm (AIMD ≈ Reno, DCTCP). Default DCTCP.
	CC cc.Kind
	// CCConfig tunes the algorithm; its MSS is set to mss.
	CCConfig cc.Config
	// Algo, when non-nil, supplies a pre-built congestion-control instance
	// and overrides CC/CCConfig — how MPTCP injects one subflow of a
	// coupled controller (see Coupler).
	Algo cc.Algorithm
	// RTO is the retransmission timeout. Default 1ms.
	RTO time.Duration
	// Tenant tags outgoing packets for per-entity policies.
	Tenant int
	// SkipHandshake starts in established state (long-running flows).
	SkipHandshake bool
	// OnComplete fires when the full stream (Write'n bytes after Close) is
	// acknowledged.
	OnComplete func(now time.Duration)
	// OnAcked fires whenever new bytes are cumulatively acknowledged
	// (backpressure hook for proxies).
	OnAcked func(now time.Duration, n int64)
	// OnTimeout fires on each retransmission timeout of an established
	// connection with bytes outstanding (MPTCP uses consecutive timeouts
	// without ack progress to declare a subflow's path dead).
	OnTimeout func(now time.Duration)
}

func (c SenderConfig) withDefaults() SenderConfig {
	if c.CC == "" {
		c.CC = cc.KindDCTCP
	}
	if c.RTO <= 0 {
		c.RTO = time.Millisecond
	}
	return c
}

// Sender is the sending half of one TCP-model connection.
type Sender struct {
	cfg  SenderConfig
	eng  *sim.Engine
	port Port

	algo cc.Algorithm

	established bool
	synSent     bool
	closed      bool // Close called: stream length is final
	total       int64
	sndUna      int64
	sndNxt      int64
	rcvWnd      int64
	finAcked    bool

	dupAcks int
	srtt    time.Duration
	// sentAt holds the first-send time of each unacknowledged segment that
	// can still give an RTT sample, in send order, which is seq order: pump
	// sends at a rising sndNxt, and go-back-N empties it before the rewind.
	sentAt     []segSent
	globalAt   map[int64]int64 // local offset -> MPTCP global offset
	rtxTimer   sim.Timer
	inRecovery int64 // high-water seq during fast recovery; 0 when not

	// Stats
	SegsSent uint64
	SegsRetx uint64
	AcksRcvd uint64
	FastRetx uint64
	Timeouts uint64
}

// segSent is when the segment starting at seq was first sent.
type segSent struct {
	seq int64
	at  time.Duration
}

// sentIndex returns the index of the first sentAt entry at or above seq and
// whether that entry starts at seq.
func (s *Sender) sentIndex(seq int64) (int, bool) {
	return slices.BinarySearchFunc(s.sentAt, seq, func(e segSent, seq int64) int { return cmp.Compare(e.seq, seq) })
}

// NewSender builds a sender that transmits packets through port.
func NewSender(eng *sim.Engine, port Port, cfg SenderConfig) *Sender {
	cfg = cfg.withDefaults()
	algo := cfg.Algo
	if algo == nil {
		ccCfg := cfg.CCConfig
		ccCfg.MSS = mss
		var err error
		algo, err = cc.New(cfg.CC, ccCfg)
		if err != nil {
			panic("baseline: " + err.Error())
		}
	}
	s := &Sender{
		cfg:    cfg,
		eng:    eng,
		port:   port,
		algo:   algo,
		rcvWnd: 1 << 40, // until the receiver advertises
	}
	if cfg.SkipHandshake {
		s.established = true
	}
	return s
}

// Algo exposes the congestion-control state (tests, traces).
func (s *Sender) Algo() cc.Algorithm { return s.algo }

// Outstanding returns unacknowledged bytes.
func (s *Sender) Outstanding() int64 { return s.sndNxt - s.sndUna }

// Acked returns cumulatively acknowledged bytes.
func (s *Sender) Acked() int64 { return s.sndUna }

// Write appends n bytes to the stream and pumps transmission.
func (s *Sender) Write(n int) {
	if s.closed {
		panic("baseline: Write after Close")
	}
	s.total += int64(n)
	s.pump()
}

// Close marks the stream complete; OnComplete fires when all bytes are
// acknowledged.
func (s *Sender) Close() {
	s.closed = true
	s.pump()
}

// pump transmits as much as windows allow.
func (s *Sender) pump() {
	if !s.established {
		if !s.synSent {
			s.synSent = true
			s.send(Segment{Conn: s.cfg.Conn, Syn: true}, ackSize)
			s.armRTO()
		}
		return
	}
	for {
		wnd := int64(s.algo.Window())
		if s.rcvWnd < wnd {
			wnd = s.rcvWnd
		}
		if s.sndNxt >= s.total || s.sndNxt-s.sndUna >= wnd {
			break
		}
		n := int64(mss)
		if s.total-s.sndNxt < n {
			n = s.total - s.sndNxt
		}
		if s.sndNxt-s.sndUna+n > wnd && s.sndNxt > s.sndUna {
			break // partial segment would overflow the window
		}
		seg := Segment{Conn: s.cfg.Conn, Seq: s.sndNxt, Len: int(n), GlobalSeq: s.globalFor(s.sndNxt)}
		if s.closed && s.sndNxt+n == s.total {
			seg.Fin = true
		}
		s.sentAt = append(s.sentAt, segSent{seq: s.sndNxt, at: s.eng.Now()})
		s.sndNxt += n
		s.send(seg, int(n)+headerBytes)
	}
	if s.Outstanding() > 0 || (!s.established && s.synSent) {
		s.armRTO()
	}
}

func (s *Sender) send(seg Segment, size int) {
	s.SegsSent++
	pkt := s.port.AllocPacket()
	pkt.Dst, pkt.Size, pkt.Payload = s.cfg.Dst, size, newSegment(seg)
	pkt.ECNCapable, pkt.Tenant, pkt.FlowID = true, s.cfg.Tenant, s.cfg.Conn
	s.port.Send(pkt)
}

// OnPacket handles an arriving ACK (or SYNACK) for this connection.
func (s *Sender) OnPacket(pkt *simnet.Packet) {
	if pkt.Corrupted {
		return // failed checksum
	}
	seg, ok := pkt.Payload.(*Segment)
	if !ok || seg.Conn != s.cfg.Conn || !seg.Ack {
		return
	}
	now := s.eng.Now()
	s.AcksRcvd++
	s.rcvWnd = seg.Wnd
	if seg.SynAck && !s.established {
		s.established = true
		s.pump()
		return
	}

	newly := seg.AckNo - s.sndUna
	if newly > 0 {
		// RTT sample from the oldest acked segment (Karn: only if the ack
		// covers a segment we recorded exactly once). Segments sent below
		// sndUna can precede it, so it is searched for, not read at the head.
		if i, ok := s.sentIndex(s.sndUna); ok {
			sample := now - s.sentAt[i].at
			if s.srtt == 0 {
				s.srtt = sample
			} else {
				s.srtt = (7*s.srtt + sample) / 8
			}
		}
		acked, _ := s.sentIndex(seg.AckNo)
		s.sentAt = slices.Delete(s.sentAt, 0, acked)
		s.sndUna = seg.AckNo
		s.dupAcks = 0
		if s.inRecovery != 0 {
			if s.sndUna >= s.inRecovery {
				s.inRecovery = 0
			} else {
				// NewReno partial ack: the next hole is also lost;
				// retransmit it immediately instead of waiting for an RTO.
				s.retransmitHead()
			}
		}
		s.algo.OnAck(now, cc.Signal{
			AckedBytes: int(newly),
			ECN:        seg.ECNEcho,
			RTT:        s.srtt,
		})
		if s.cfg.OnAcked != nil {
			s.cfg.OnAcked(now, newly)
		}
		if s.closed && s.sndUna >= s.total && !s.finAcked {
			s.finAcked = true
			s.rtxTimer.Stop()
			if s.cfg.OnComplete != nil {
				s.cfg.OnComplete(now)
			}
			return
		}
	} else if seg.AckNo == s.sndUna && s.Outstanding() > 0 && !seg.WndUpdate {
		// Duplicate ACK: three in a row trigger fast retransmit, once per
		// recovery episode.
		if seg.ECNEcho {
			s.algo.OnAck(now, cc.Signal{ECN: true, RTT: s.srtt})
		}
		s.dupAcks++
		if s.dupAcks >= 3 && s.inRecovery == 0 {
			s.inRecovery = s.sndNxt
			s.FastRetx++
			s.algo.OnLoss(now)
			s.retransmitHead()
		}
	}
	s.pump()
}

// retransmitHead resends one MSS at sndUna.
func (s *Sender) retransmitHead() {
	n := int64(mss)
	if s.total-s.sndUna < n {
		n = s.total - s.sndUna
	}
	if n <= 0 {
		return
	}
	seg := Segment{Conn: s.cfg.Conn, Seq: s.sndUna, Len: int(n), GlobalSeq: s.globalFor(s.sndUna)}
	if s.closed && s.sndUna+n == s.total {
		seg.Fin = true
	}
	if i, ok := s.sentIndex(s.sndUna); ok {
		s.sentAt = slices.Delete(s.sentAt, i, i+1) // Karn: no RTT sample from retransmits
	}
	s.SegsRetx++
	s.send(seg, int(n)+headerBytes)
	s.armRTO()
}

// noteGlobal records that subflow-local offset local carries MPTCP global
// stream offset global (used by the MPTCP striper).
func (s *Sender) noteGlobal(local, global int64) {
	if s.globalAt == nil {
		s.globalAt = make(map[int64]int64)
	}
	s.globalAt[local] = global
}

// globalFor returns the MPTCP global offset for a local offset, or -1.
func (s *Sender) globalFor(local int64) int64 {
	if s.globalAt == nil {
		return -1
	}
	if g, ok := s.globalAt[local]; ok {
		return g
	}
	return -1
}

func (s *Sender) armRTO() {
	s.rtxTimer.Stop()
	s.rtxTimer = s.eng.ScheduleArg(s.cfg.RTO, senderRTO, s, nil)
}

// senderRTO is package-level so arming the RTO timer allocates nothing.
func senderRTO(a1, _ any) { a1.(*Sender).onRTO() }

func (s *Sender) onRTO() {
	if s.finAcked {
		return
	}
	if !s.established {
		if s.synSent {
			s.Timeouts++
			s.send(Segment{Conn: s.cfg.Conn, Syn: true}, ackSize)
			s.armRTO()
		}
		return
	}
	if s.Outstanding() == 0 {
		s.pump()
		return
	}
	s.Timeouts++
	s.algo.OnLoss(s.eng.Now())
	s.inRecovery = 0
	s.dupAcks = 0
	// Go-back-N: everything past the cumulative ACK point is presumed lost
	// after a timeout (classic TCP without SACK); rewind and resend.
	s.sndNxt = s.sndUna
	s.sentAt = s.sentAt[:0]
	s.pump()
	s.armRTO()
	if s.cfg.OnTimeout != nil {
		s.cfg.OnTimeout(s.eng.Now())
	}
}
