package simnet

import (
	"fmt"
	"time"

	"mtp/internal/wire"
)

// ForwardPolicy selects the egress link for a packet among the candidate
// links toward its destination. Implementations embody the load-balancing
// schemes compared in the paper's Figure 6 and the path alternator of
// Figure 5.
type ForwardPolicy interface {
	// Choose picks one of candidates (never empty) for pkt.
	Choose(sw *Switch, pkt *Packet, candidates []*Link) *Link
}

// Switch is an output-queued switch with a static routing table mapping
// destinations to one or more candidate egress links, and a forwarding
// policy that picks among them.
type Switch struct {
	id  NodeID
	net *Network
	// routes holds the AddRoute entries of a hand-wired switch; nil until
	// the first one.
	routes map[NodeID][]*Link
	// routeFn, when non-nil, computes candidates for destinations with no
	// routes entry. The topo fabrics (leaf-spine and fat-tree) route by it
	// alone, deriving candidates arithmetically from the destination ID: a
	// k=32 fat-tree has 8192 hosts and 1280 switches, and materializing
	// per-host route entries in every switch would cost gigabytes.
	routeFn func(dst NodeID) []*Link
	policy  ForwardPolicy
	// egress lists every distinct egress link in registration order
	// (deterministic, unlike the routes map) for crash flushes and stats.
	egress []*Link

	// down models a crashed switch: every transiting packet is dropped
	// until it comes back up.
	down bool
	// FaultDrops counts packets lost while the switch was down.
	FaultDrops uint64

	// Interposer, when non-nil, sees every packet before forwarding and may
	// consume it (in-network compute offloads: caches, aggregators,
	// mutators). Returning false consumes the packet; the interposer is then
	// responsible for releasing it (Network().ReleasePacket).
	Interposer func(pkt *Packet, from *Link) bool

	// InterposerReset, when non-nil, is invoked when the switch crashes
	// (SetDown(true)): a real device's SRAM does not survive a crash, so
	// offloads register their state-clearing hook here. Recovery then relies
	// entirely on end-to-end machinery (delegated ACKs, host-side fallback).
	InterposerReset func()
}

// NewSwitch creates and registers a switch with the given policy
// (SingleRoute if nil).
func NewSwitch(n *Network, policy ForwardPolicy) *Switch {
	if policy == nil {
		policy = SingleRoute{}
	}
	s := &Switch{id: n.AllocID(), net: n, policy: policy}
	n.Register(s)
	return s
}

// ID implements Node.
func (s *Switch) ID() NodeID { return s.id }

// Network returns the network the switch belongs to. Offload devices use it
// to release consumed packets and to read the virtual clock.
func (s *Switch) Network() *Network { return s.net }

// AddRoute appends a candidate egress link for packets destined to dst.
func (s *Switch) AddRoute(dst NodeID, l *Link) {
	if s.routes == nil {
		s.routes = make(map[NodeID][]*Link)
	}
	s.routes[dst] = append(s.routes[dst], l)
	for _, e := range s.egress {
		if e == l {
			return
		}
	}
	s.egress = append(s.egress, l)
}

// SetRouteFunc installs a computed routing function consulted for
// destinations with no explicit AddRoute entry. The returned slice is owned
// by the function and must be stable for a given dst; callers never mutate
// it.
func (s *Switch) SetRouteFunc(fn func(dst NodeID) []*Link) { s.routeFn = fn }

// AddEgress registers an egress link for crash flushes and stats without
// installing a route entry — used alongside SetRouteFunc, where links reach
// packets through the route function instead of AddRoute.
func (s *Switch) AddEgress(l *Link) {
	for _, e := range s.egress {
		if e == l {
			return
		}
	}
	s.egress = append(s.egress, l)
}

// EgressLinks returns the switch's distinct egress links in registration
// order.
func (s *Switch) EgressLinks() []*Link { return s.egress }

// Routes returns the candidate egress links toward dst in AddRoute order
// (or from the route function when no explicit entry exists). Callers must
// not mutate the returned slice.
func (s *Switch) Routes(dst NodeID) []*Link {
	if len(s.routes) > 0 {
		if c, ok := s.routes[dst]; ok {
			return c
		}
	}
	if s.routeFn != nil {
		return s.routeFn(dst)
	}
	return nil
}

// SetDown sets the switch's crash state. Going down drops every packet
// sitting in the egress port queues (they are the crashed switch's buffers)
// in addition to all packets that transit while down, and wipes any
// interposer state (a crash does not preserve device SRAM).
func (s *Switch) SetDown(down bool) {
	s.down = down
	if down {
		for _, l := range s.egress {
			n := l.FlushQueues()
			l.stats.FaultDrops += uint64(n)
			s.FaultDrops += uint64(n)
		}
		if s.InterposerReset != nil {
			s.InterposerReset()
		}
	}
}

// Down reports whether the switch is crashed.
func (s *Switch) Down() bool { return s.down }

// Receive implements Node: route and enqueue.
func (s *Switch) Receive(pkt *Packet, from *Link) {
	if s.down {
		s.FaultDrops++
		if s.net.obs != nil {
			s.net.obs.SwitchDropped(s, pkt)
		}
		s.net.ReleasePacket(pkt)
		return
	}
	if s.Interposer != nil && !s.Interposer(pkt, from) {
		return
	}
	s.Forward(pkt)
}

// Forward routes a packet (also used by offloads that generate packets).
func (s *Switch) Forward(pkt *Packet) {
	// Computed-routing switches (every topo-built fabric) have no routes
	// map, so the per-packet path skips the map hash entirely.
	var candidates []*Link
	if len(s.routes) > 0 {
		candidates = s.routes[pkt.Dst]
	}
	if candidates == nil && s.routeFn != nil {
		candidates = s.routeFn(pkt.Dst)
	}
	if len(candidates) == 0 {
		panic(fmt.Sprintf("simnet: switch %d has no route to %d", s.id, pkt.Dst))
	}
	l := s.policy.Choose(s, pkt, s.filterExcluded(pkt, candidates))
	if s.net.obs != nil {
		s.net.obs.ForwardChosen(s, pkt, l, candidates)
	}
	l.Enqueue(pkt)
}

// brokenExcludeFilter disables filterExcluded. It exists only so the
// invariant harness (internal/scenario) can prove it catches and shrinks the
// PR 3 class of bug — a switch that stops honoring header exclude lists —
// and must never be set outside those tests.
var brokenExcludeFilter bool

// SetBrokenExcludeFilter toggles the deliberate-bug test hook above.
func SetBrokenExcludeFilter(on bool) { brokenExcludeFilter = on }

// filterExcluded honors the header's path-exclude list when alternatives
// remain: the end-host has told the network these pathlets are congested.
func (s *Switch) filterExcluded(pkt *Packet, candidates []*Link) []*Link {
	if brokenExcludeFilter {
		return candidates
	}
	if pkt.Hdr == nil || len(pkt.Hdr.PathExclude) == 0 || len(candidates) == 1 {
		return candidates
	}
	kept := make([]*Link, 0, len(candidates))
	for _, l := range candidates {
		if l.cfg.Pathlet != nil && pkt.Hdr.Excludes(wire.PathTC{PathID: *l.cfg.Pathlet, TC: pkt.Hdr.TC}) {
			continue
		}
		kept = append(kept, l)
	}
	if len(kept) == 0 {
		return candidates
	}
	return kept
}

// SingleRoute always uses the first candidate.
type SingleRoute struct{}

// Choose implements ForwardPolicy.
func (SingleRoute) Choose(_ *Switch, _ *Packet, c []*Link) *Link { return c[0] }

// ECMP hashes the packet's flow ID onto one candidate, so a flow (or an MTP
// message, which carries its own flow ID) sticks to one path regardless of
// load.
type ECMP struct{}

// Choose implements ForwardPolicy.
func (ECMP) Choose(_ *Switch, pkt *Packet, c []*Link) *Link {
	h := pkt.FlowID
	// Fibonacci hashing spreads sequential flow IDs.
	h = h * 0x9E3779B97F4A7C15
	return c[int(h%uint64(len(c)))]
}

// Spray sends successive packets round-robin across candidates regardless of
// flow or message, maximizing utilization at the cost of reordering.
type Spray struct{ next int }

// Choose implements ForwardPolicy.
func (p *Spray) Choose(_ *Switch, _ *Packet, c []*Link) *Link {
	l := c[p.next%len(c)]
	p.next++
	return l
}

// Alternator models a time-division path switch (e.g. an optical circuit
// switch): the active candidate rotates every Period of virtual time. This
// is the Figure 5 scenario that defeats single-window congestion control.
type Alternator struct {
	Period time.Duration
}

// Choose implements ForwardPolicy.
func (a Alternator) Choose(sw *Switch, _ *Packet, c []*Link) *Link {
	if a.Period <= 0 {
		return c[0]
	}
	idx := int(sw.net.eng.Now()/a.Period) % len(c)
	return c[idx]
}

// MessageRR assigns whole messages to candidates round-robin: it keeps
// MTP's atomic-message invariant (no reordering inside a message) but is
// blind to message size and path load — the ablation showing that the LB's
// win in Figure 6 comes from size/load visibility, not just atomicity.
type MessageRR struct {
	assignments map[msgKey]*Link
	next        int
}

// NewMessageRR returns the blind per-message round-robin policy.
func NewMessageRR() *MessageRR {
	return &MessageRR{assignments: make(map[msgKey]*Link)}
}

// Choose implements ForwardPolicy.
func (m *MessageRR) Choose(sw *Switch, pkt *Packet, c []*Link) *Link {
	if pkt.Hdr == nil {
		return ECMP{}.Choose(sw, pkt, c)
	}
	key := keyOf(pkt)
	if l, ok := m.assignments[key]; ok {
		if linkIn(c, l) {
			if pkt.Hdr.PktNum+1 >= pkt.Hdr.MsgPkts {
				delete(m.assignments, key)
			}
			return l
		}
		// The pinned egress is no longer a candidate — the sender excluded
		// its pathlet (failover, auto-exclude) after the message was
		// assigned. Honoring the stale pin would defeat the exclude list, so
		// drop it and re-assign among the survivors.
		delete(m.assignments, key)
	}
	l := c[m.next%len(c)]
	m.next++
	if pkt.Hdr.MsgPkts > 1 && pkt.Hdr.PktNum+1 < pkt.Hdr.MsgPkts {
		m.assignments[key] = l
	}
	return l
}

// MessageLB is the MTP-enabled load balancer of Figure 6: it assigns each
// message atomically to the candidate with the least outstanding work,
// using the message length advertised in every MTP header. Packets without
// an MTP header fall back to ECMP.
type MessageLB struct {
	assignments map[msgKey]*Link
	// pending tracks bytes assigned to each link that have not yet been
	// serialized, giving the LB visibility beyond the queue itself. It is
	// a slice in first-use order rather than a map keyed by link: every
	// walk over it is deterministic, so tied scores resolve identically run
	// to run regardless of map iteration order, and with at most one entry
	// per egress of the switch a scan finds a link faster than a hash.
	pending   []pendingLink
	lastDrain time.Duration
}

type pendingLink struct {
	link  *Link
	bytes float64
}

// msgKey names one message network-wide. Source node and port share a word
// so the key is 16 bytes with no padding, which the runtime hashes in one
// pass instead of field by field.
type msgKey struct {
	srcPort uint64 // uint64(src)<<16 | port
	msgID   uint64
}

func keyOf(pkt *Packet) msgKey {
	return msgKey{srcPort: uint64(pkt.Src)<<16 | uint64(pkt.Hdr.SrcPort), msgID: pkt.Hdr.MsgID}
}

// NewMessageLB returns an empty message-aware load balancer.
func NewMessageLB() *MessageLB {
	return &MessageLB{assignments: make(map[msgKey]*Link)}
}

// Choose implements ForwardPolicy.
func (m *MessageLB) Choose(sw *Switch, pkt *Packet, c []*Link) *Link {
	if pkt.Hdr == nil {
		return ECMP{}.Choose(sw, pkt, c)
	}
	m.drain(sw.net.eng.Now())
	key := keyOf(pkt)
	if l, ok := m.assignments[key]; ok {
		if linkIn(c, l) {
			m.account(l, pkt)
			if pkt.Hdr.PktNum+1 >= pkt.Hdr.MsgPkts {
				delete(m.assignments, key)
			}
			return l
		}
		// Pinned egress excluded mid-message (see MessageRR.Choose): message
		// atomicity yields to the end-host's exclude request, which is the
		// whole point of the failover machinery. Re-assign below.
		delete(m.assignments, key)
	}
	// Pick the candidate that would finish this message soonest: queued
	// bytes plus our own pending estimate, normalized by link rate, plus
	// propagation delay. Strict less-than means ties go to the earliest
	// candidate in route order — a deterministic choice.
	var best *Link
	bestScore := 0.0
	for _, l := range c {
		backlog := float64(l.QueueBytes()) + m.pendingFor(l)
		score := backlog*8/l.cfg.Rate + l.cfg.Delay.Seconds()
		if best == nil || score < bestScore {
			best, bestScore = l, score
		}
	}
	if pkt.Hdr.MsgPkts > 1 && pkt.Hdr.PktNum+1 < pkt.Hdr.MsgPkts {
		m.assignments[key] = best
	}
	m.account(best, pkt)
	return best
}

// linkIn reports whether l is among the candidates.
func linkIn(c []*Link, l *Link) bool {
	for _, x := range c {
		if x == l {
			return true
		}
	}
	return false
}

// pendingOf returns l's entry in pending, or nil before its first use.
func (m *MessageLB) pendingOf(l *Link) *pendingLink {
	for i := range m.pending {
		if m.pending[i].link == l {
			return &m.pending[i]
		}
	}
	return nil
}

func (m *MessageLB) pendingFor(l *Link) float64 {
	if p := m.pendingOf(l); p != nil {
		return p.bytes
	}
	return 0
}

func (m *MessageLB) account(l *Link, pkt *Packet) {
	if p := m.pendingOf(l); p != nil {
		p.bytes += float64(pkt.Size)
		return
	}
	m.pending = append(m.pending, pendingLink{link: l, bytes: float64(pkt.Size)})
}

// drain decays the pending-bytes estimate at line rate so the score tracks
// reality without per-packet callbacks.
func (m *MessageLB) drain(now time.Duration) {
	dt := (now - m.lastDrain).Seconds()
	if dt <= 0 {
		return
	}
	m.lastDrain = now
	for i := range m.pending {
		b := m.pending[i].bytes - m.pending[i].link.cfg.Rate/8*dt
		if b < 0 {
			b = 0
		}
		m.pending[i].bytes = b
	}
}
