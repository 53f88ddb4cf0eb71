// Package check is the protocol invariant harness: a Checker observes every
// packet event in a simulated network (via the simnet Observer hooks) and
// every protocol event in attached MTP endpoints (via core.Observer) and
// asserts protocol-wide properties on each step:
//
//   - packet conservation: every enqueued packet is delivered, dropped, or
//     faulted — never duplicated (outside an injected duplication fault) and
//     never silently lost;
//   - exactly-once message delivery with intact payload (size and CRC
//     cross-checked against the submitted message);
//   - congestion window and rate within the configured bounds for every
//     (pathlet, traffic class);
//   - queue occupancy never exceeding capacity, with ECN marks applied
//     exactly when the enqueue-time queue length crosses the threshold;
//   - a monotone virtual clock with stable (FIFO-among-equal-timestamps)
//     event ordering;
//   - failover sanity: switches never forward onto an excluded pathlet while
//     alternatives remain, and dead pathlets are readmitted only on feedback
//     that proves them alive;
//   - offload exactly-once (opt-in via EnableOffloadAudit): every worker
//     gradient contribution is counted exactly once in some delivered
//     aggregate — in-network or host-side fallback — never dropped and never
//     double-counted across the in-network/host boundary.
//
// Violations are recorded, not panicked, so a scenario runner can shrink a
// failing configuration to a minimal seed (internal/scenario).
package check

import (
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"mtp/internal/core"
	"mtp/internal/offload"
	"mtp/internal/pathlet"
	"mtp/internal/sim"
	"mtp/internal/simnet"
	"mtp/internal/wire"
)

// Violation is one invariant failure.
type Violation struct {
	// At is the virtual time the violation was detected.
	At time.Duration
	// Rule names the violated invariant family (e.g. "conservation",
	// "delivery", "cc-bounds", "queue", "ecn", "clock", "failover",
	// "exclude").
	Rule string
	// Detail describes the specific failure.
	Detail string
}

// String renders the violation on one line.
func (v Violation) String() string {
	return fmt.Sprintf("%12v [%s] %s", v.At, v.Rule, v.Detail)
}

// maxRecorded caps how many violations are kept; past it only the count
// grows (one bug often fires on every subsequent packet).
const maxRecorded = 128

// pktPhase tracks where a packet is in its life.
type pktPhase uint8

const (
	phaseQueued  pktPhase = iota // in a link's egress queue or serializer
	phaseWire                    // serialized, propagating to the link's dst
	phaseNode                    // handed to a node's Receive
	phaseDropped                 // discarded; awaiting release
)

type pktState struct {
	phase pktPhase
	link  *simnet.Link
}

type msgKey struct {
	node simnet.NodeID
	port uint16
	id   uint64
}

type msgRec struct {
	size       int
	crc        uint32
	hasData    bool
	deliveries int
}

type epInfo struct {
	node     simnet.NodeID
	haveNode bool

	// Window/rate bounds derived from the endpoint's cc.Config; boundsKnown
	// is false under a custom CCFactory (bounds are then the factory's
	// business).
	boundsKnown bool
	minWin      float64
	maxWin      float64
	lineRate    float64

	// Failover bookkeeping.
	dead map[wire.PathTC]bool
	// feedbackFrom is the pathlet whose feedback is being processed right
	// now; readmissions are legal only for it.
	feedbackFrom    wire.PathTC
	hasFeedbackFrom bool
}

// Checker is one invariant-checking session over one engine + network.
// Attach it before the simulation runs, run the simulation, then call
// Finalize. The zero value is not usable; use New.
type Checker struct {
	eng *sim.Engine

	violations []Violation
	total      int

	pkts map[*simnet.Packet]pktState
	msgs map[msgKey]*msgRec
	eps  map[*core.Endpoint]*epInfo

	// shared, when non-nil, replaces msgs with a registry spanning several
	// checkers — one per shard of a partitioned run — so the exactly-once
	// delivery invariant survives a message being queued in one shard and
	// delivered in another (see MsgRegistry).
	shared *MsgRegistry

	// Offload exactly-once audit (EnableOffloadAudit).
	offloadAudit bool
	offContrib   map[uint64]map[simnet.NodeID][]int64
	offCredited  map[uint64]map[simnet.NodeID]bool

	stepped bool
	lastAt  time.Duration
	lastPri uint64
	lastSeq uint64
}

// MsgRegistry is a message send/delivery ledger shared by the per-shard
// checkers of one partitioned run (internal/shard). A message queued at an
// endpoint in one shard is usually delivered at an endpoint in another; with
// per-checker ledgers that delivery would flag "delivered but never sent".
// The registry is mutex-protected because shard engines run on their own
// goroutines; the shard barrier guarantees a queue event is exchanged (and so
// happens-before) the matching delivery, which is at least one lookahead
// later in virtual time.
type MsgRegistry struct {
	mu   sync.Mutex
	msgs map[msgKey]*msgRec
}

// NewMsgRegistry returns an empty shared message ledger.
func NewMsgRegistry() *MsgRegistry {
	return &MsgRegistry{msgs: make(map[msgKey]*msgRec)}
}

// ShareMessages redirects this checker's message ledger to reg. Call it on
// every shard's checker before the simulation runs.
func (c *Checker) ShareMessages(reg *MsgRegistry) { c.shared = reg }

// RecordSend registers a message queued at a real-network sender — the
// socket-backed counterpart of the Observer's KindQueued event, for tests
// that run the endpoint over internal/udpnet instead of the simulator. node
// is any stable per-process identity the test assigns. It returns an error
// when (node, srcPort, msgID) was already used.
func (r *MsgRegistry) RecordSend(node simnet.NodeID, srcPort uint16, msgID uint64, data []byte) error {
	key := msgKey{node: node, port: srcPort, id: msgID}
	rec := &msgRec{size: len(data)}
	if data != nil {
		rec.hasData = true
		rec.crc = crc32.ChecksumIEEE(data)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.msgs[key]; dup {
		return fmt.Errorf("check: node %d reused message ID %d", node, msgID)
	}
	r.msgs[key] = rec
	return nil
}

// RecordDelivery validates one real-network delivery against the ledger:
// the message must have been recorded with RecordSend, not delivered
// before, and carry the same size and payload CRC — the exactly-once
// delivery invariant, enforced across processes and real sockets.
func (r *MsgRegistry) RecordDelivery(node simnet.NodeID, srcPort uint16, msgID uint64, data []byte) error {
	key := msgKey{node: node, port: srcPort, id: msgID}
	r.mu.Lock()
	rec := r.msgs[key]
	if rec != nil {
		rec.deliveries++
	}
	r.mu.Unlock()
	switch {
	case rec == nil:
		return fmt.Errorf("check: message %d from node %d port %d delivered but never sent", msgID, node, srcPort)
	case rec.deliveries > 1:
		return fmt.Errorf("check: message %d from node %d delivered %d times", msgID, node, rec.deliveries)
	case len(data) != rec.size:
		return fmt.Errorf("check: message %d from node %d delivered %d bytes, sent %d", msgID, node, len(data), rec.size)
	case rec.hasData && crc32.ChecksumIEEE(data) != rec.crc:
		return fmt.Errorf("check: message %d from node %d payload CRC mismatch", msgID, node)
	}
	return nil
}

// Undelivered counts recorded sends that have never been delivered — zero
// once a soak has fully drained.
func (r *MsgRegistry) Undelivered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rec := range r.msgs {
		if rec.deliveries == 0 {
			n++
		}
	}
	return n
}

// putMsg records a queued message, reporting whether the key was already
// taken (a reused message ID).
func (c *Checker) putMsg(key msgKey, rec *msgRec) (dup bool) {
	if c.shared != nil {
		c.shared.mu.Lock()
		defer c.shared.mu.Unlock()
		if _, dup := c.shared.msgs[key]; dup {
			return true
		}
		c.shared.msgs[key] = rec
		return false
	}
	if _, dup := c.msgs[key]; dup {
		return true
	}
	c.msgs[key] = rec
	return false
}

// takeDelivery looks up a delivered message's send record and bumps its
// delivery count, returning the record (nil if never sent) and the new count.
// The record's size/crc fields are written once at queue time and immutable
// after, so the caller may read them outside the registry lock.
func (c *Checker) takeDelivery(key msgKey) (*msgRec, int) {
	if c.shared != nil {
		c.shared.mu.Lock()
		defer c.shared.mu.Unlock()
		rec := c.shared.msgs[key]
		if rec == nil {
			return nil, 0
		}
		rec.deliveries++
		return rec, rec.deliveries
	}
	rec := c.msgs[key]
	if rec == nil {
		return nil, 0
	}
	rec.deliveries++
	return rec, rec.deliveries
}

// New builds a checker and installs it as the network's observer and the
// engine's step hook. Endpoint-level invariants additionally require
// core.Config.Observer to point at the checker and AttachEndpoint to be
// called per endpoint.
func New(eng *sim.Engine, net *simnet.Network) *Checker {
	c := &Checker{
		eng:  eng,
		pkts: make(map[*simnet.Packet]pktState),
		msgs: make(map[msgKey]*msgRec),
		eps:  make(map[*core.Endpoint]*epInfo),
	}
	net.SetObserver(c)
	eng.SetStepHook(c.step)
	return c
}

// AttachEndpoint registers an endpoint and its network address, enabling the
// delivery and congestion-bound invariants for it. Call it right after the
// endpoint is built, before any message is submitted.
func (c *Checker) AttachEndpoint(ep *core.Endpoint, node simnet.NodeID) {
	info := c.info(ep)
	info.node = node
	info.haveNode = true

	cfg := ep.Config()
	if cfg.CCFactory == nil {
		ccCfg := cfg.CCConfig
		ccCfg.MSS = cfg.MSS
		norm := ccCfg.Normalized()
		info.boundsKnown = true
		info.minWin = float64(norm.MSS) // cc floors every window at one MSS
		info.maxWin = norm.MaxWindow
		info.lineRate = norm.LineRate
	}
}

func (c *Checker) info(ep *core.Endpoint) *epInfo {
	info := c.eps[ep]
	if info == nil {
		info = &epInfo{dead: make(map[wire.PathTC]bool)}
		c.eps[ep] = info
	}
	return info
}

// Violations returns the violations recorded so far (capped; Count has the
// true total).
func (c *Checker) Violations() []Violation { return c.violations }

// Count returns the total number of violations detected, including ones
// past the recording cap.
func (c *Checker) Count() int { return c.total }

// Err returns nil when no invariant was violated, otherwise an error
// summarizing the first violation and the total count.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s), first: %s", c.total, c.violations[0])
}

// EnableOffloadAudit turns on the offload exactly-once invariant: the
// checker records every queued message whose payload parses as a worker
// gradient (offload.EncodeGradient), and the application reports each
// completed aggregation round via OffloadRound (the PSAggregator.Audit
// callback has the matching signature). Finalize then flags contributions
// that were never counted. Opt-in because gradient detection is structural —
// enable it only in setups where the traffic is aggregation traffic.
func (c *Checker) EnableOffloadAudit() {
	c.offloadAudit = true
	c.offContrib = make(map[uint64]map[simnet.NodeID][]int64)
	c.offCredited = make(map[uint64]map[simnet.NodeID]bool)
}

// OffloadRound verifies one delivered aggregate: every credited worker must
// have submitted a contribution for the round, none may have been credited
// before (in-network or fallback), and the sum must equal the distinct
// workers' submitted vectors added exactly once each.
func (c *Checker) OffloadRound(round uint64, workers []simnet.NodeID, sum []int64) {
	if !c.offloadAudit {
		return
	}
	credited := c.offCredited[round]
	if credited == nil {
		credited = make(map[simnet.NodeID]bool)
		c.offCredited[round] = credited
	}
	var want []int64
	for _, w := range workers {
		if credited[w] {
			c.violate("offload", "round %d contribution from node %d counted twice", round, w)
			continue
		}
		credited[w] = true
		vec := c.offContrib[round][w]
		if vec == nil {
			c.violate("offload", "round %d credits node %d, which never contributed", round, w)
			continue
		}
		if want == nil {
			want = make([]int64, len(vec))
		}
		for i, v := range vec {
			if i < len(want) {
				want[i] += v
			}
		}
	}
	if want == nil {
		return
	}
	if len(sum) != len(want) {
		c.violate("offload", "round %d aggregate has %d elements, contributions have %d", round, len(sum), len(want))
		return
	}
	for i := range want {
		if sum[i] != want[i] {
			c.violate("offload", "round %d aggregate[%d] = %d, expected %d from %d distinct contributions", round, i, sum[i], want[i], len(workers))
			return
		}
	}
}

// Finalize runs the end-of-simulation conservation audit and returns all
// recorded violations. Packets still queued or on the wire are legal (the
// horizon cut them mid-flight); packets a node consumed without releasing or
// forwarding are leaks. With the offload audit enabled, contributions never
// counted in any delivered aggregate are losses.
func (c *Checker) Finalize() []Violation {
	for pkt, st := range c.pkts {
		switch st.phase {
		case phaseNode:
			c.violate("conservation", "packet %p (src %d dst %d) retained by a node: neither forwarded, delivered, nor dropped", pkt, pkt.Src, pkt.Dst)
		case phaseDropped:
			c.violate("conservation", "packet %p (src %d dst %d) dropped but never released", pkt, pkt.Src, pkt.Dst)
		}
	}
	if c.offloadAudit {
		for round, byWorker := range c.offContrib {
			for w := range byWorker {
				if !c.offCredited[round][w] {
					c.violate("offload", "round %d contribution from node %d never counted in any delivered aggregate", round, w)
				}
			}
		}
	}
	return c.violations
}

func (c *Checker) violate(rule, format string, args ...any) {
	c.total++
	if len(c.violations) >= maxRecorded {
		return
	}
	c.violations = append(c.violations, Violation{
		At:     c.eng.Now(),
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
	})
}

// --- sim.Engine step hook: monotone clock, stable event ordering ---

func (c *Checker) step(at time.Duration, pri, seq uint64) {
	if c.stepped {
		if at < c.lastAt {
			c.violate("clock", "virtual clock moved backwards: %v after %v", at, c.lastAt)
		} else if at == c.lastAt && pri == c.lastPri && seq <= c.lastSeq {
			// Among equal timestamps, priority may legally move backwards
			// (an executing high-priority event can schedule a zero-delay
			// pri-0 follow-up), but within one (at, pri) class scheduling
			// order must be FIFO.
			c.violate("clock", "event ordering unstable at %v: pri %d seq %d fired after seq %d", at, pri, seq, c.lastSeq)
		}
	}
	c.stepped = true
	c.lastAt = at
	c.lastPri = pri
	c.lastSeq = seq
}

// --- simnet.Observer: conservation, queue occupancy, ECN, exclude audit ---

// PacketEnqueued implements simnet.Observer.
func (c *Checker) PacketEnqueued(l *simnet.Link, pkt *simnet.Packet, qi, qlenBefore int, ecnMarked bool) {
	if st, ok := c.pkts[pkt]; ok && st.phase != phaseNode {
		c.violate("conservation", "packet %p enqueued on %s while already %s", pkt, l.Name(), phaseName(st.phase))
	}
	c.pkts[pkt] = pktState{phase: phaseQueued, link: l}

	cfg := l.Config()
	if cfg.PauseThreshold == 0 {
		limit := cfg.QueueCap
		if cfg.Trim {
			// Trimmed headers get 4x dedicated headroom beyond the payload
			// queue (see Link.enqueue).
			limit = cfg.QueueCap * 5
		}
		if qlenBefore >= limit {
			c.violate("queue", "link %s queue %d held %d packets at enqueue, capacity %d", l.Name(), qi, qlenBefore, limit)
		}
	}
	if k := cfg.ECNThreshold; k > 0 {
		if want := qlenBefore >= k; ecnMarked != want {
			c.violate("ecn", "link %s queue length %d vs threshold %d: marked=%v", l.Name(), qlenBefore, k, ecnMarked)
		}
	} else if ecnMarked {
		c.violate("ecn", "link %s marked ECN with marking disabled", l.Name())
	}
}

// PacketDropped implements simnet.Observer.
func (c *Checker) PacketDropped(l *simnet.Link, pkt *simnet.Packet, reason simnet.DropReason) {
	if st, ok := c.pkts[pkt]; ok && st.phase == phaseWire {
		c.violate("conservation", "packet %p dropped (%s) while on the wire of %s", pkt, reason, st.link.Name())
	}
	c.pkts[pkt] = pktState{phase: phaseDropped, link: l}
}

// PacketTrimmed implements simnet.Observer: trimming mutates, not moves.
func (c *Checker) PacketTrimmed(*simnet.Link, *simnet.Packet) {}

// PacketDuplicated implements simnet.Observer.
func (c *Checker) PacketDuplicated(l *simnet.Link, pkt, dup *simnet.Packet) {
	if _, ok := c.pkts[dup]; ok {
		c.violate("conservation", "duplicate packet %p on %s aliases a live packet", dup, l.Name())
	}
}

// PacketTxDone implements simnet.Observer.
func (c *Checker) PacketTxDone(l *simnet.Link, pkt *simnet.Packet) {
	st, ok := c.pkts[pkt]
	if !ok || st.phase != phaseQueued || st.link != l {
		c.violate("conservation", "packet %p serialized by %s without being queued there", pkt, l.Name())
	}
	c.pkts[pkt] = pktState{phase: phaseWire, link: l}
}

// PacketDelivered implements simnet.Observer.
func (c *Checker) PacketDelivered(l *simnet.Link, pkt *simnet.Packet) {
	st, ok := c.pkts[pkt]
	if !ok || st.phase != phaseWire || st.link != l {
		c.violate("conservation", "packet %p delivered by %s without transiting its wire", pkt, l.Name())
	}
	c.pkts[pkt] = pktState{phase: phaseNode, link: l}
}

// SwitchDropped implements simnet.Observer.
func (c *Checker) SwitchDropped(sw *simnet.Switch, pkt *simnet.Packet) {
	c.pkts[pkt] = pktState{phase: phaseDropped}
}

// PacketReleased implements simnet.Observer.
func (c *Checker) PacketReleased(pkt *simnet.Packet) {
	if st, ok := c.pkts[pkt]; ok {
		if st.phase == phaseQueued || st.phase == phaseWire {
			c.violate("conservation", "packet %p released while %s on %s: silent loss", pkt, phaseName(st.phase), st.link.Name())
		}
		delete(c.pkts, pkt)
	}
}

// PacketShardExported implements simnet.ShardAccountant: the packet crossed
// a shard-boundary wire and now belongs to the receiving shard's checker. It
// must have been transiting the cut link's wire; its local ledger entry is
// closed so the sender-side release doesn't read as silent loss.
func (c *Checker) PacketShardExported(l *simnet.Link, pkt *simnet.Packet) {
	st, ok := c.pkts[pkt]
	if !ok || st.phase != phaseWire || st.link != l {
		c.violate("conservation", "packet %p exported by %s without transiting its wire", pkt, l.Name())
	}
	delete(c.pkts, pkt)
}

// PacketShardImported implements simnet.ShardAccountant: a copy of a packet
// exported by a neighbouring shard is about to be delivered off this shard's
// mirror of the cut link. Seeding it in the wire phase makes the subsequent
// PacketDelivered/Receive/release sequence indistinguishable from a local
// delivery.
func (c *Checker) PacketShardImported(l *simnet.Link, pkt *simnet.Packet) {
	if st, ok := c.pkts[pkt]; ok {
		c.violate("conservation", "imported packet %p aliases a live packet (%s)", pkt, phaseName(st.phase))
	}
	c.pkts[pkt] = pktState{phase: phaseWire, link: l}
}

// ForwardChosen implements simnet.Observer: audits the egress choice against
// the header's path-exclude list. Choosing an excluded pathlet is legal only
// when every candidate is excluded (the documented fallback).
func (c *Checker) ForwardChosen(sw *simnet.Switch, pkt *simnet.Packet, chosen *simnet.Link, candidates []*simnet.Link) {
	hdr := pkt.Hdr
	if hdr == nil || len(hdr.PathExclude) == 0 {
		return
	}
	cp := chosen.Config().Pathlet
	if cp == nil || !hdr.Excludes(wire.PathTC{PathID: *cp, TC: hdr.TC}) {
		return
	}
	for _, cand := range candidates {
		p := cand.Config().Pathlet
		if p == nil || !hdr.Excludes(wire.PathTC{PathID: *p, TC: hdr.TC}) {
			c.violate("exclude", "switch %d forwarded msg %d pkt %d onto excluded pathlet %d while pathlet alternatives remained",
				sw.ID(), hdr.MsgID, hdr.PktNum, *cp)
			return
		}
	}
}

func phaseName(p pktPhase) string {
	switch p {
	case phaseQueued:
		return "queued"
	case phaseWire:
		return "on the wire"
	case phaseNode:
		return "at a node"
	case phaseDropped:
		return "dropped"
	default:
		return "unknown"
	}
}

// --- core.Observer: delivery, cc bounds, failover sanity ---

// Observe implements core.Observer: it records failures and feedback for the
// failover audit and routes the events the audits below consume; every other
// kind passes unexamined.
func (c *Checker) Observe(e *core.Endpoint, ev *core.Event) {
	switch ev.Kind {
	case core.KindQueued:
		c.messageQueued(e, ev.Out)
	case core.KindDeliver:
		c.messageDelivered(ev.In)
	case core.KindPathletUpdated:
		c.pathletUpdated(e, ev.State)
	case core.KindFailover:
		c.info(e).dead[ev.Path] = true
	case core.KindFeedback:
		info := c.info(e)
		info.feedbackFrom = ev.Path
		info.hasFeedbackFrom = true
	case core.KindReadmit:
		c.pathletReadmitted(e, ev.Path)
	case core.KindProbe:
		c.probeSent(e, ev.Path)
	}
}

// messageQueued registers an outbound message for the delivery audit.
func (c *Checker) messageQueued(e *core.Endpoint, m *core.OutMessage) {
	info := c.info(e)
	if !info.haveNode {
		return
	}
	key := msgKey{node: info.node, port: e.Config().LocalPort, id: m.ID}
	rec := &msgRec{size: m.Size}
	if data := m.Data(); data != nil {
		rec.hasData = true
		rec.crc = crc32.ChecksumIEEE(data)
		if c.offloadAudit {
			c.recordContribution(info.node, data)
		}
	}
	if c.putMsg(key, rec) {
		c.violate("delivery", "endpoint %d reused message ID %d", info.node, m.ID)
	}
}

// recordContribution notes a worker gradient submission for the offload
// exactly-once audit. Aggregate payloads (device- or fallback-format) are
// structurally distinct from gradients, so a false positive would require
// non-aggregation traffic — which the audit's opt-in contract excludes.
func (c *Checker) recordContribution(node simnet.NodeID, data []byte) {
	if _, _, _, isAgg := offload.DecodeAggregate(data); isAgg {
		return
	}
	round, vec, ok := offload.DecodeGradient(data)
	if !ok {
		return
	}
	byWorker := c.offContrib[round]
	if byWorker == nil {
		byWorker = make(map[simnet.NodeID][]int64)
		c.offContrib[round] = byWorker
	}
	if _, dup := byWorker[node]; dup {
		c.violate("offload", "node %d submitted two contributions for round %d", node, round)
		return
	}
	byWorker[node] = vec
}

// messageDelivered checks one delivery against its send record: exactly
// once, same size, same payload.
func (c *Checker) messageDelivered(m *core.InMessage) {
	from, ok := m.From.(simnet.NodeID)
	if !ok {
		return
	}
	if m.MsgID >= offload.SpoofMsgIDBase {
		// Device-originated message (cache response, aggregated gradient):
		// no endpoint queued it, so the sent-message cross-checks do not
		// apply. The offload audit covers aggregate correctness instead.
		return
	}
	key := msgKey{node: from, port: m.SrcPort, id: m.MsgID}
	rec, deliveries := c.takeDelivery(key)
	if rec == nil {
		c.violate("delivery", "message %d from node %d port %d delivered but never sent", m.MsgID, from, m.SrcPort)
		return
	}
	if deliveries > 1 {
		c.violate("delivery", "message %d from node %d delivered %d times", m.MsgID, from, deliveries)
	}
	if m.Size != rec.size {
		c.violate("delivery", "message %d from node %d delivered %d bytes, sent %d", m.MsgID, from, m.Size, rec.size)
	}
	if rec.hasData {
		if m.Data == nil {
			c.violate("delivery", "message %d from node %d delivered without its payload", m.MsgID, from)
		} else if crc := crc32.ChecksumIEEE(m.Data); crc != rec.crc {
			c.violate("delivery", "message %d from node %d payload CRC %08x, sent %08x", m.MsgID, from, crc, rec.crc)
		}
	}
}

// pathletUpdated is the window/rate bound audit.
func (c *Checker) pathletUpdated(e *core.Endpoint, st *pathlet.State) {
	info := c.info(e)
	if !info.boundsKnown {
		return
	}
	w := st.Algo.Window()
	if w < info.minWin {
		c.violate("cc-bounds", "pathlet %d/%d window %.0f below floor %.0f", st.Path.PathID, st.Path.TC, w, info.minWin)
	}
	if info.maxWin > 0 && w > info.maxWin {
		c.violate("cc-bounds", "pathlet %d/%d window %.0f above cap %.0f", st.Path.PathID, st.Path.TC, w, info.maxWin)
	}
	if rate, rateBased := st.Algo.Rate(); rateBased {
		if rate <= 0 {
			c.violate("cc-bounds", "pathlet %d/%d rate %.0f not positive", st.Path.PathID, st.Path.TC, rate)
		}
		if info.lineRate > 0 && rate > info.lineRate {
			c.violate("cc-bounds", "pathlet %d/%d rate %.0f above line rate %.0f", st.Path.PathID, st.Path.TC, rate, info.lineRate)
		}
	}
	if st.Inflight < 0 {
		c.violate("cc-bounds", "pathlet %d/%d negative inflight %d", st.Path.PathID, st.Path.TC, st.Inflight)
	}
}

// pathletReadmitted: a dead pathlet may only come back when feedback from
// that very pathlet is being processed — the probe (or any rerouted packet)
// made it across and back.
func (c *Checker) pathletReadmitted(e *core.Endpoint, p wire.PathTC) {
	info := c.info(e)
	if !info.dead[p] {
		c.violate("failover", "pathlet %d/%d readmitted but was never declared dead", p.PathID, p.TC)
	}
	delete(info.dead, p)
	if !info.hasFeedbackFrom || info.feedbackFrom != p {
		c.violate("failover", "pathlet %d/%d readmitted without feedback from it", p.PathID, p.TC)
	}
}

// probeSent: only a dead pathlet is probed.
func (c *Checker) probeSent(e *core.Endpoint, p wire.PathTC) {
	if !c.info(e).dead[p] {
		c.violate("failover", "probe sent toward pathlet %d/%d, which is not dead", p.PathID, p.TC)
	}
}
