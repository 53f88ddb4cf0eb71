package baseline

import (
	"time"

	"mtp/internal/cc"
	"mtp/internal/sim"
	"mtp/internal/simnet"
	"mtp/internal/span"
)

// MPTCP is a multipath TCP model: one byte stream striped over N subflows,
// each an independent sequence space with its own loss recovery. Segments
// carry their global stream offset so the receiver can merge subflows.
//
// Coupling turns the original simplified model into a credible rival: it
// links the subflow congestion windows (LIA per RFC 6356 or OLIA per Khalili
// et al.), so one connection's subflows collectively take a single flow's
// share on a shared bottleneck while shifting load toward the less congested
// path. Each MSS chunk goes to the subflow with the most free window
// (maxFree).
//
// With FailoverRTOs set, a subflow whose path stops acking is declared dead
// after that many consecutive timeouts and its unacked bytes are reinjected
// on the surviving subflows (opportunistic reinjection) — without it, a
// blackholed subflow stalls the merged stream until the path heals, exactly
// the failure mode the failover experiment measures.
type MPTCP struct {
	subflows []*Sender
	subs     []*msub
	coupler  *Coupler

	total int64
	next  int64 // next global offset to assign

	// ackedGlobal accumulates acked global byte ranges across subflows
	// (reinjection can ack the same range on two subflows; the span set
	// counts it once).
	ackedGlobal span.Set[int64]
	done        bool

	failRTOs   int
	onComplete func(time.Duration)

	// liveBuf/liveIdx are reusable scratch for scheduling around dead
	// subflows without per-chunk allocation.
	liveBuf []*Sender
	liveIdx []int
}

// msub is the striper's per-subflow bookkeeping.
type msub struct {
	s *Sender
	// stripes records (local offset, global offset, length) for every chunk
	// assigned to this subflow, in local-offset order; fully acked stripes
	// are pruned from the front.
	stripes []mstripe
	// rtoStreak counts consecutive timeouts with no ack progress.
	rtoStreak int
	dead      bool
}

type mstripe struct {
	local, global, n int64
}

// MPTCPConfig parameterizes the sender side.
type MPTCPConfig struct {
	// Conns are the subflow connection IDs (one subflow each). FlowID
	// equals the conn ID, so ECMP pins each subflow to a path.
	Conns []uint64
	// Dst is the destination node.
	Dst simnet.NodeID
	// CC, CCConfig, RTO as in SenderConfig.
	CC       cc.Kind
	CCConfig cc.Config
	RTO      time.Duration
	// Coupling selects coupled congestion control across the subflows
	// (CouplingLIA, CouplingOLIA); empty keeps independent windows.
	Coupling Coupling
	// FailoverRTOs enables dead-path reinjection: after this many
	// consecutive timeouts on a subflow without ack progress, its unacked
	// bytes are re-striped onto the other subflows. 0 disables (legacy).
	FailoverRTOs int
	// OnComplete fires once, when every written byte has been acknowledged
	// (write the whole stream before relying on it).
	OnComplete func(now time.Duration)
}

// NewMPTCP builds a multipath sender whose subflows send through port.
func NewMPTCP(eng *sim.Engine, port Port, cfg MPTCPConfig) *MPTCP {
	if len(cfg.Conns) == 0 {
		panic("baseline: MPTCP needs subflows")
	}
	m := &MPTCP{
		failRTOs:   cfg.FailoverRTOs,
		onComplete: cfg.OnComplete,
	}
	if cfg.Coupling != CouplingNone {
		ccCfg := cfg.CCConfig
		ccCfg.MSS = mss
		m.coupler = NewCoupler(cfg.Coupling, ccCfg, len(cfg.Conns))
	}
	for i, conn := range cfg.Conns {
		i := i
		sc := SenderConfig{
			Conn: conn, Dst: cfg.Dst, CC: cfg.CC, CCConfig: cfg.CCConfig,
			RTO: cfg.RTO, SkipHandshake: true,
			// Re-stripe whenever a subflow's window opens, and track acked
			// global coverage for completion.
			OnAcked:   func(now time.Duration, _ int64) { m.onSubAcked(i, now) },
			OnTimeout: func(now time.Duration) { m.onSubTimeout(i, now) },
		}
		if m.coupler != nil {
			sc.Algo = m.coupler.Sub(i)
		}
		s := NewSender(eng, port, sc)
		m.subflows = append(m.subflows, s)
		m.subs = append(m.subs, &msub{s: s})
	}
	return m
}

// maxFree returns the index of the subflow with the most free congestion
// window (window minus in-flight minus unsent backlog); subs is never empty.
// The pick is a pure function of the subflow states, so a run is
// reproducible.
func maxFree(subs []*Sender) int {
	best := -1
	var bestFree float64
	for i, s := range subs {
		free := s.Algo().Window() - float64(s.Outstanding()) - float64(s.total-s.sndNxt)
		if best == -1 || free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// saturated reports whether a subflow already holds at least two windows of
// unacked backlog — assigning more would only deepen its queue.
func saturated(s *Sender) bool {
	return float64(s.total-s.sndUna) >= 2*s.Algo().Window()
}

// Subflows exposes the per-path senders (tests inspect their windows).
func (m *MPTCP) Subflows() []*Sender { return m.subflows }

// Write appends n bytes to the stream and stripes them across subflows.
func (m *MPTCP) Write(n int) {
	m.total += int64(n)
	m.pump()
}

// pump assigns unscheduled stream bytes to subflows in MSS chunks, each to
// the one maxFree picks, recording each chunk's global offset.
func (m *MPTCP) pump() {
	for m.next < m.total {
		live, idx := m.liveSenders()
		i := maxFree(live)
		if idx != nil {
			i = idx[i]
		}
		chunk := min(int64(mss), m.total-m.next)
		m.assign(i, m.next, chunk)
		m.next += chunk
		// Stop once every live subflow is saturated well past its window,
		// so a huge stream does not pre-assign everything up front.
		allFull := true
		for _, sf := range live {
			if !saturated(sf) {
				allFull = false
				break
			}
		}
		if allFull {
			break
		}
	}
}

// assign stripes global bytes [global, global+n) onto subflow i.
func (m *MPTCP) assign(i int, global, n int64) {
	sub := m.subs[i]
	sub.stripes = append(sub.stripes, mstripe{local: sub.s.total, global: global, n: n})
	sub.s.noteGlobal(sub.s.total, global)
	sub.s.Write(int(n))
}

// liveSenders returns the schedulable subflows. idx maps the returned slice
// back to m.subs indices; nil idx means identity. When every subflow is
// dead, all are returned (there is nothing better to do than retry).
func (m *MPTCP) liveSenders() ([]*Sender, []int) {
	anyDead := false
	for _, sub := range m.subs {
		if sub.dead {
			anyDead = true
			break
		}
	}
	if !anyDead {
		return m.subflows, nil
	}
	m.liveBuf = m.liveBuf[:0]
	m.liveIdx = m.liveIdx[:0]
	for i, sub := range m.subs {
		if !sub.dead {
			m.liveBuf = append(m.liveBuf, sub.s)
			m.liveIdx = append(m.liveIdx, i)
		}
	}
	if len(m.liveBuf) == 0 {
		return m.subflows, nil
	}
	return m.liveBuf, m.liveIdx
}

// onSubAcked maps subflow i's newly acked local bytes to global ranges,
// prunes finished stripes, revives the path, and re-pumps.
func (m *MPTCP) onSubAcked(i int, now time.Duration) {
	sub := m.subs[i]
	sub.rtoStreak = 0
	sub.dead = false
	una := sub.s.Acked()
	for len(sub.stripes) > 0 {
		st := sub.stripes[0]
		if st.local >= una {
			break
		}
		hi := st.local + st.n
		if una < hi {
			hi = una
		}
		m.ackedGlobal.Add(st.global, st.global+(hi-st.local)-1)
		if st.local+st.n > una {
			break // partially acked; keep for the rest
		}
		sub.stripes = sub.stripes[1:]
	}
	m.pump()
	m.checkDone(now)
}

func (m *MPTCP) checkDone(now time.Duration) {
	if m.done || m.total == 0 || m.next < m.total {
		return
	}
	if m.ackedGlobal.Prefix() >= m.total {
		m.done = true
		if m.onComplete != nil {
			m.onComplete(now)
		}
	}
}

// onSubTimeout counts a consecutive-RTO streak; at the configured threshold
// the subflow is declared dead and its unacked bytes reinjected elsewhere.
func (m *MPTCP) onSubTimeout(i int, now time.Duration) {
	sub := m.subs[i]
	sub.rtoStreak++
	if m.failRTOs <= 0 || sub.dead || sub.rtoStreak < m.failRTOs {
		return
	}
	alive := false
	for j, other := range m.subs {
		if j != i && !other.dead {
			alive = true
			break
		}
	}
	if !alive {
		return // nowhere to shift the bytes
	}
	sub.dead = true
	m.reinject(i)
}

// reinject re-stripes subflow i's unacked global ranges onto the live
// subflows. The dead subflow keeps its own retransmission state (the path
// may heal); the receiver's merge dedups whichever copy arrives first.
func (m *MPTCP) reinject(i int) {
	sub := m.subs[i]
	una := sub.s.Acked()
	for _, st := range sub.stripes {
		lo := st.local
		if una > lo {
			lo = una
		}
		if lo >= st.local+st.n {
			continue
		}
		g := st.global + (lo - st.local)
		n := st.local + st.n - lo
		live, idx := m.liveSenders()
		j := maxFree(live)
		if idx != nil {
			j = idx[j]
		}
		if j == i {
			continue // maxFree fell back to the dead subflow itself
		}
		m.assign(j, g, n)
	}
}

// AckedGlobal returns the contiguously acknowledged global stream prefix.
func (m *MPTCP) AckedGlobal() int64 { return m.ackedGlobal.Prefix() }

// MPTCPReceiver merges the subflow streams back into the global stream and
// tracks the contiguous prefix plus the out-of-order merge buffer (the
// receiver-side buffering cost the paper's Table 1 charges MPTCP with).
type MPTCPReceiver struct {
	subflows map[uint64]*subRecv
	// merged holds the global stream bytes merged so far: its prefix is the
	// in-order stream, the rest the out-of-order merge buffer.
	merged span.Set[int64]
	// MaxPending tracks the peak merge-buffer occupancy in bytes.
	MaxPending int64

	// OnProgress fires when the contiguous prefix advances.
	OnProgress func(now time.Duration, contiguous int64)
}

// subRecv pairs a subflow receiver with its local→global segment map and
// merge cursor.
type subRecv struct {
	r *Receiver
	// segs maps a segment's local offset to (global offset, length) as
	// learned from arriving headers (including out-of-order arrivals).
	segs map[int64]mergeSeg
	// mergedLocal is the local offset up to which segments were merged.
	mergedLocal int64
}

type mergeSeg struct {
	global int64
	n      int64
}

// NewMPTCPReceiver builds the receiving half. Subflow receivers ack through
// port toward src.
func NewMPTCPReceiver(eng *sim.Engine, port Port, src simnet.NodeID, conns []uint64) *MPTCPReceiver {
	r := &MPTCPReceiver{subflows: make(map[uint64]*subRecv)}
	for _, conn := range conns {
		sub := NewReceiver(eng, port, ReceiverConfig{Conn: conn, Src: src})
		r.subflows[conn] = &subRecv{r: sub, segs: make(map[int64]mergeSeg)}
	}
	return r
}

// OnPacket dispatches a packet to its subflow and merges every segment the
// subflow has delivered in order so far (including segments that arrived
// out of order earlier and just became contiguous).
func (r *MPTCPReceiver) OnPacket(pkt *simnet.Packet) {
	if pkt.Corrupted {
		return // failed checksum
	}
	seg, ok := pkt.Payload.(*Segment)
	if !ok {
		return
	}
	sub := r.subflows[seg.Conn]
	if sub == nil {
		return
	}
	// Learn the local→global mapping from the header before processing, so
	// out-of-order segments can be merged once the hole fills.
	if !seg.Ack && seg.Len > 0 && seg.GlobalSeq >= 0 {
		sub.segs[seg.Seq] = mergeSeg{global: seg.GlobalSeq, n: int64(seg.Len)}
	}
	sub.r.OnPacket(pkt)
	// Merge every mapped segment now covered by the subflow's in-order
	// prefix.
	for {
		ms, ok := sub.segs[sub.mergedLocal]
		if !ok || sub.mergedLocal+ms.n > sub.r.rcvNxt {
			break
		}
		delete(sub.segs, sub.mergedLocal)
		sub.mergedLocal += ms.n
		r.merge(ms.global, ms.n)
	}
}

// merge adds global bytes [global, global+n) to the merged stream.
// Reinjection can deliver a range twice, whole or in part; the set counts it
// once.
func (r *MPTCPReceiver) merge(global, n int64) {
	before := r.merged.Prefix()
	r.merged.Add(global, global+n-1)
	contig := r.merged.Prefix()
	r.MaxPending = max(r.MaxPending, r.merged.Covered()-contig)
	if contig > before && r.OnProgress != nil {
		r.OnProgress(0, contig)
	}
}

// Contiguous returns the merged in-order stream length.
func (r *MPTCPReceiver) Contiguous() int64 { return r.merged.Prefix() }
