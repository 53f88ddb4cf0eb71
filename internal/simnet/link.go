package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"mtp/internal/wire"
)

// LinkConfig parameterizes one directed link.
type LinkConfig struct {
	// Rate is the line rate in bits per second.
	Rate float64
	// Delay is the propagation delay.
	Delay time.Duration
	// QueueCap is the per-queue capacity in packets. Zero means 1000.
	QueueCap int
	// ECNThreshold K marks CE (and MTP ECN feedback) when the instantaneous
	// queue length at enqueue is >= K packets. Zero disables marking.
	ECNThreshold int

	// Queues is the number of egress queues. Zero means 1. Classify selects
	// the queue for a packet; nil means queue 0.
	Queues   int
	Classify func(*Packet) int
	// StrictPriority serves the highest-indexed non-empty queue first
	// instead of round-robin — message-priority scheduling at the egress.
	StrictPriority bool

	// Pathlet, when non-nil, is the (pathlet, TC-agnostic) identity this
	// link stamps into MTP headers. The TC in the stamped entry is taken
	// from the packet's own TC so per-(pathlet,TC) state forms at senders.
	Pathlet *uint32

	// StampECN/StampRate/StampDelay/StampQueueLen select which feedback
	// types the link writes into MTP headers (multi-algorithm CC).
	StampECN      bool
	StampRate     bool
	StampDelay    bool
	StampQueueLen bool

	// Trim, when set, truncates the payload of packets that would be
	// dropped (NDP-style) instead of discarding them, stamping trim
	// feedback so receivers can NACK immediately.
	Trim bool

	// Policer, when non-nil, is consulted at enqueue; it may mark or drop
	// packets to enforce per-entity policies without separate queues.
	Policer Policer

	// PauseThreshold enables PFC-style lossless forwarding: when this
	// link's queue reaches the threshold it pauses the upstream links
	// registered with AddUpstream, and resumes them at half the threshold.
	// Zero disables (drop-tail). Losslessness trades drops for head-of-line
	// blocking that spreads upstream — both behaviours are observable.
	PauseThreshold int

	// Rank, when positive, keys the same-timestamp ordering of this link's
	// deliveries: the delivery event is scheduled at engine priority
	// DeliverPriBase+Rank instead of the default scheduling-order tiebreak.
	// Topology builders assign each link a globally unique construction
	// rank, which makes equal-time delivery order a pure function of the
	// wiring — the property that lets a pod-sharded run (internal/shard)
	// reproduce the single-engine event order exactly. Two deliveries on one
	// link can never tie (serialization time is positive), so per-link
	// FIFO-ness is unaffected.
	Rank int

	// Remote, when non-nil, marks a shard-boundary link: the destination
	// node lives in another shard's engine. Instead of scheduling the local
	// delivery event, the transmit-done path hands the packet and its
	// arrival time to the hook, which conveys it across the shard barrier
	// (internal/shard). Serialization, queueing, feedback stamping, and
	// stats all still happen here — only the final propagation hop crosses.
	Remote RemoteHook
}

// RemoteHook receives packets leaving the local shard. DeliverRemote owns
// pkt afterwards: it must capture what crosses the boundary and release pkt
// into the local pool before returning. The Packet struct and the header it
// owns are pooled and must not escape — the hook clones Hdr. Data and Payload
// may be handed across by pointer: nothing on the sending side touches them
// after the transmit-done that invoked the hook, so the shard barrier's
// happens-before edge is the only synchronization the handoff needs. An
// OwnedPayload moves with the crossing: the hook clears pkt.Payload before
// the release, or the release would recycle the payload in flight, and the
// packet that carries it on the far side owns it from then on.
type RemoteHook interface {
	DeliverRemote(l *Link, deliverAt time.Duration, pkt *Packet)
}

// DeliverPriBase offsets link-rank delivery priorities above the default
// priority 0 of ordinary events (timers, transmit-dones), and below
// sim.PriLast samplers.
const DeliverPriBase = uint64(1) << 32

// deliverPri returns the engine priority for this link's delivery events:
// spatially keyed when the topology assigned a rank, default otherwise.
func (l *Link) deliverPri() uint64 {
	if l.cfg.Rank > 0 {
		return DeliverPriBase + uint64(l.cfg.Rank)
	}
	return 0
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.QueueCap <= 0 {
		c.QueueCap = 1000
	}
	if c.Queues <= 0 {
		c.Queues = 1
	}
	return c
}

// LinkStats aggregates link counters.
type LinkStats struct {
	TxPackets  uint64
	TxBytes    uint64
	Drops      uint64
	Trims      uint64
	Marks      uint64
	PoliceDrop uint64
	// FaultDrops counts packets lost to injected faults (link down, switch
	// crash flushes, blackholes).
	FaultDrops uint64
	// Corrupted counts packets damaged by injected bit errors.
	Corrupted uint64
	// Duplicated counts extra copies created by injected duplication.
	Duplicated uint64
}

// Link is a directed, rate-limited, store-and-forward channel from one node
// to another, with one or more drop-tail egress queues, optional ECN marking,
// and optional MTP pathlet feedback stamping. It models an egress port plus
// wire.
type Link struct {
	net  *Network
	cfg  LinkConfig
	dst  Node
	name string

	queues  []pktRing
	rrNext  int
	busy    bool
	qlen    int // packets queued across queues
	qbytes  int // their bytes
	stats   LinkStats
	minWire time.Duration // serialization time of a 1-byte packet, for sanity

	// flow accounting for RCP-style fair-rate feedback
	flowSeen   map[uint64]time.Duration
	flowWindow time.Duration

	// Lossless-mode state.
	upstream []*Link
	paused   bool
	// Pauses counts pause events issued to upstream links.
	pauses uint64

	// Fault-injection state, driven by internal/fault. All zero in healthy
	// operation.
	down      bool       // link down: arrivals and queued packets are lost
	blackhole bool       // silent drop of arrivals; queued packets drain
	degrade   float64    // line-rate multiplier in (0,1]; 0 means healthy
	corruptP  float64    // per-packet bit-corruption probability
	dupP      float64    // per-packet duplication probability
	faultRng  *rand.Rand // deterministic source for the probabilistic faults
}

// NewLink is used by Network.Connect; it is exported for tests that build
// custom elements.
func newLink(n *Network, dst Node, cfg LinkConfig, name string) *Link {
	cfg = cfg.withDefaults()
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("simnet: link %s has no rate", name))
	}
	l := &Link{
		net:        n,
		cfg:        cfg,
		dst:        dst,
		name:       name,
		queues:     make([]pktRing, cfg.Queues),
		flowSeen:   make(map[uint64]time.Duration),
		flowWindow: time.Millisecond,
	}
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Dst returns the node this link delivers to (route inspection, path
// enumeration over generated topologies).
func (l *Link) Dst() Node { return l.dst }

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueLen returns the total number of queued packets across queues.
func (l *Link) QueueLen() int { return l.qlen }

// QueueBytes returns the total bytes waiting across queues.
func (l *Link) QueueBytes() int { return l.qbytes }

// pktRing is one egress queue: a FIFO of n packets from buf[head], its
// length a power of two, so a dequeue moves nothing.
type pktRing struct {
	buf     []*Packet
	head, n int
}

func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		buf := make([]*Packet, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) pop() *Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// SerializationDelay returns the time to put a packet of size bytes on the
// wire at the current (possibly degraded) line rate.
func (l *Link) SerializationDelay(size int) time.Duration {
	return time.Duration(float64(size*8) / l.effectiveRate() * float64(time.Second))
}

// effectiveRate is the line rate after any injected degradation.
func (l *Link) effectiveRate() float64 {
	if l.degrade > 0 && l.degrade < 1 {
		return l.cfg.Rate * l.degrade
	}
	return l.cfg.Rate
}

// --- fault-injection hooks (driven by internal/fault) ---

// SetDown sets the link's administrative state. Taking a link down loses the
// queued packets (the buffer belongs to the dead port) and every subsequent
// arrival until the link comes back up. A packet already being serialized
// still delivers — it was committed to the wire before the failure.
func (l *Link) SetDown(down bool) {
	l.down = down
	if down {
		l.stats.FaultDrops += uint64(l.FlushQueues())
	}
}

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// SetBlackhole controls silent packet loss: while set, arrivals vanish
// without any counter the sender could observe — queued packets still drain,
// and no error signal of any kind is generated. This models a misprogrammed
// forwarding entry or a failed egress port that the network itself does not
// detect; only end-to-end machinery can.
func (l *Link) SetBlackhole(on bool) { l.blackhole = on }

// SetDegrade scales the effective line rate by factor (0 < factor <= 1);
// zero or one restores full rate. Models transient brownouts (flapping
// optics, FEC storms).
func (l *Link) SetDegrade(factor float64) {
	if factor <= 0 || factor >= 1 {
		factor = 0
	}
	l.degrade = factor
}

// SetCorrupt makes each transiting packet independently corrupted with
// probability p, drawing from rng (nil disables). Corrupted packets are
// flagged, not mutated: the wire checksum means receivers drop them.
func (l *Link) SetCorrupt(p float64, rng *rand.Rand) {
	l.corruptP = p
	l.faultRng = rng
}

// SetDuplicate makes each transiting packet independently duplicated with
// probability p, drawing from rng (nil disables).
func (l *Link) SetDuplicate(p float64, rng *rand.Rand) {
	l.dupP = p
	l.faultRng = rng
}

// FlushQueues discards every queued packet and returns how many were lost.
func (l *Link) FlushQueues() int {
	n := l.qlen
	for i := range l.queues {
		for q := &l.queues[i]; q.n > 0; {
			pkt := q.pop()
			if l.net.obs != nil {
				l.net.obs.PacketDropped(l, pkt, DropFault)
			}
			l.net.ReleasePacket(pkt)
		}
	}
	l.qlen, l.qbytes = 0, 0
	l.net.queuedPkts -= n
	return n
}

// AddUpstream registers a link that feeds this one; it will be paused when
// this link's queue crosses PauseThreshold (lossless mode).
func (l *Link) AddUpstream(up *Link) {
	l.upstream = append(l.upstream, up)
}

// Pauses returns the number of pause events this link has issued.
func (l *Link) Pauses() uint64 { return l.pauses }

// Paused reports whether the link is currently paused by a downstream.
func (l *Link) Paused() bool { return l.paused }

// pauseUpstream stops the registered upstream transmitters.
func (l *Link) pauseUpstream() {
	for _, up := range l.upstream {
		if !up.paused {
			up.paused = true
			l.pauses++
		}
	}
}

// resumeUpstream restarts paused upstream transmitters.
func (l *Link) resumeUpstream() {
	for _, up := range l.upstream {
		if up.paused {
			up.paused = false
			if !up.busy {
				up.transmitNext()
			}
		}
	}
}

// Enqueue places a packet on the link's egress queue, applying injected
// faults, policing, marking, dropping or trimming as configured.
func (l *Link) Enqueue(pkt *Packet) {
	if l.down || l.blackhole {
		l.stats.FaultDrops++
		if l.net.obs != nil {
			l.net.obs.PacketDropped(l, pkt, DropFault)
		}
		l.net.ReleasePacket(pkt)
		return
	}
	if l.dupP > 0 && l.faultRng != nil && l.faultRng.Float64() < l.dupP {
		dup := l.net.AllocPacket()
		pooled, own := dup.pooled, dup.own
		*dup = *pkt
		dup.pooled = pooled
		dup.released = false
		// The struct copy aliased pkt's header storage and owned payload: give
		// dup its own back and deep-copy the header into it, and give it a
		// payload of its own.
		dup.own = own
		if pkt.Hdr != nil {
			dup.SetHeader(pkt.Hdr)
		}
		if op, ok := pkt.Payload.(OwnedPayload); ok {
			dup.Payload = op.Copy()
		}
		l.stats.Duplicated++
		if l.net.obs != nil {
			l.net.obs.PacketDuplicated(l, pkt, dup)
		}
		l.enqueue(pkt)
		l.enqueue(dup)
		return
	}
	l.enqueue(pkt)
}

func (l *Link) enqueue(pkt *Packet) {
	now := l.net.eng.Now()

	if l.corruptP > 0 && l.faultRng != nil && l.faultRng.Float64() < l.corruptP {
		pkt.Corrupted = true
		l.stats.Corrupted++
	}

	if l.cfg.Policer != nil {
		switch l.cfg.Policer.Admit(now, pkt, l) {
		case PolicerDrop:
			l.stats.PoliceDrop++
			if l.net.obs != nil {
				l.net.obs.PacketDropped(l, pkt, DropPolicer)
			}
			l.net.ReleasePacket(pkt)
			return
		case PolicerMark:
			l.markPacket(pkt)
		case PolicerPass:
		}
	}

	qi := 0
	if l.cfg.Classify != nil {
		qi = l.cfg.Classify(pkt)
		if qi < 0 || qi >= len(l.queues) {
			qi = 0
		}
	}
	q := &l.queues[qi]

	// Lossless mode never drops: the pause mechanism bounds growth (at the
	// network edge the bound is host memory, as with real PFC).
	if q.n >= l.cfg.QueueCap && l.cfg.PauseThreshold == 0 {
		if l.cfg.Trim && pkt.Hdr != nil && !pkt.Trimmed && pkt.Hdr.Type == wire.TypeData {
			// NDP-style trimming: keep the header, drop the payload. Headers
			// are tiny, so they get generous dedicated headroom beyond the
			// payload queue (NDP queues them at high priority); the trim
			// signal must survive exactly when overload is worst.
			l.trim(pkt)
			if q.n >= l.cfg.QueueCap+l.cfg.QueueCap*4 {
				l.stats.Drops++
				if l.net.obs != nil {
					l.net.obs.PacketDropped(l, pkt, DropQueueFull)
				}
				l.net.ReleasePacket(pkt)
				return
			}
		} else {
			l.stats.Drops++
			if l.net.obs != nil {
				l.net.obs.PacketDropped(l, pkt, DropQueueFull)
			}
			l.net.ReleasePacket(pkt)
			return
		}
	}

	ecnMarked := false
	if l.cfg.ECNThreshold > 0 && q.n >= l.cfg.ECNThreshold {
		l.markPacket(pkt)
		ecnMarked = true
	}

	pkt.enqueuedAt = now
	pkt.queueLenAtEnqueue = q.n
	l.trackFlow(pkt, now)
	if l.net.obs != nil {
		l.net.obs.PacketEnqueued(l, pkt, qi, q.n, ecnMarked)
	}
	q.push(pkt)
	l.qlen++
	l.qbytes += pkt.Size
	l.net.queuedPkts++
	if l.cfg.PauseThreshold > 0 && l.qlen >= l.cfg.PauseThreshold {
		l.pauseUpstream()
	}
	if !l.busy {
		l.transmitNext()
	}
}

// markPacket applies both the IP-level CE mark and, for MTP packets, the
// pathlet ECN feedback entry.
func (l *Link) markPacket(pkt *Packet) {
	l.stats.Marks++
	if pkt.ECNCapable {
		pkt.CE = true
	}
	if pkt.Hdr != nil && l.cfg.StampECN {
		pkt.Hdr.AddPathFeedback(wire.ECNFeedback(l.pathTC(pkt), true))
	}
}

func (l *Link) trim(pkt *Packet) {
	l.stats.Trims++
	if l.net.obs != nil {
		l.net.obs.PacketTrimmed(l, pkt)
	}
	pkt.Trimmed = true
	pkt.Data = nil
	if pkt.Hdr != nil {
		pkt.Hdr.AddPathFeedback(wire.TrimFeedback(l.pathTC(pkt), uint32(pkt.Hdr.PktLen)))
		pkt.Size -= int(pkt.Hdr.PktLen)
		if pkt.Size < 64 {
			pkt.Size = 64
		}
	}
}

func (l *Link) pathTC(pkt *Packet) wire.PathTC {
	var id uint32
	if l.cfg.Pathlet != nil {
		id = *l.cfg.Pathlet
	}
	tc := uint8(0)
	if pkt.Hdr != nil {
		tc = pkt.Hdr.TC
	}
	return wire.PathTC{PathID: id, TC: tc}
}

// transmitNext dequeues the next packet (round-robin or strict priority
// across queues) and models serialization plus propagation delay.
func (l *Link) transmitNext() {
	if l.paused {
		// A downstream lossless queue is full; resumeUpstream restarts us.
		l.busy = false
		return
	}
	if l.qlen == 0 {
		l.busy = false
		return
	}
	nq := len(l.queues)
	qi := 0
	if l.cfg.StrictPriority {
		qi = nq - 1
		for l.queues[qi].n == 0 {
			qi--
		}
	} else if nq > 1 {
		qi = l.rrNext
		for l.queues[qi].n == 0 {
			if qi++; qi == nq {
				qi = 0
			}
		}
	}
	if l.rrNext = qi + 1; l.rrNext == nq {
		l.rrNext = 0
	}
	pkt := l.queues[qi].pop()
	l.qlen--
	l.qbytes -= pkt.Size
	l.net.queuedPkts--

	l.busy = true
	txDelay := l.SerializationDelay(pkt.Size)
	l.net.eng.ScheduleArg(txDelay, linkTxDone, l, pkt)
}

// linkTxDone and linkDeliver are package-level so scheduling them via
// ScheduleArg captures nothing — the per-hop event path stays allocation-free.
func linkTxDone(a1, a2 any) {
	l := a1.(*Link)
	pkt := a2.(*Packet)
	l.stats.TxPackets++
	l.stats.TxBytes += uint64(pkt.Size)
	if l.net.obs != nil {
		l.net.obs.PacketTxDone(l, pkt)
	}
	l.stampOnDequeue(pkt)
	if l.cfg.PauseThreshold > 0 && l.QueueLen() <= l.cfg.PauseThreshold/2 {
		l.resumeUpstream()
	}
	if l.cfg.Remote != nil {
		// Shard-boundary link: the destination's engine schedules the
		// delivery. Close out the packet's local ledger first so releasing
		// it here doesn't read as silent loss.
		if sa, ok := l.net.obs.(ShardAccountant); ok {
			sa.PacketShardExported(l, pkt)
		}
		l.cfg.Remote.DeliverRemote(l, l.net.eng.Now()+l.cfg.Delay, pkt)
	} else {
		l.net.eng.ScheduleArgPri(l.cfg.Delay, l.deliverPri(), linkDeliver, l, pkt)
	}
	l.transmitNext()
}

func linkDeliver(a1, a2 any) {
	l := a1.(*Link)
	pkt := a2.(*Packet)
	if l.net.obs != nil {
		l.net.obs.PacketDelivered(l, pkt)
	}
	l.dst.Receive(pkt, l)
}

// stampOnDequeue writes feedback types that need dequeue-time information
// (delay, rate, queue length) into MTP headers.
func (l *Link) stampOnDequeue(pkt *Packet) {
	if pkt.Hdr == nil || pkt.Hdr.Type != wire.TypeData {
		return
	}
	if l.cfg.Pathlet == nil {
		return
	}
	p := l.pathTC(pkt)
	now := l.net.eng.Now()
	if l.cfg.StampECN {
		// Ensure an unmarked entry exists so the sender learns the pathlet
		// identity even on uncongested paths.
		found := false
		for _, f := range pkt.Hdr.PathFeedback {
			if f.Path == p && f.Type == wire.FeedbackECN {
				found = true
				break
			}
		}
		if !found {
			pkt.Hdr.AddPathFeedback(wire.ECNFeedback(p, false))
		}
	}
	if l.cfg.StampDelay {
		wait := now - pkt.enqueuedAt
		if wait < 0 {
			wait = 0
		}
		pkt.Hdr.AddPathFeedback(wire.DelayFeedback(p, uint64(wait)))
	}
	if l.cfg.StampQueueLen {
		pkt.Hdr.AddPathFeedback(wire.QueueLenFeedback(p, uint32(l.QueueLen())))
	}
	if l.cfg.StampRate {
		pkt.Hdr.AddPathFeedback(wire.RateFeedback(p, uint64(l.fairRate(now))))
	}
}

// trackFlow records flow activity for fair-rate estimation. MTP packets are
// keyed by sending endpoint (node, source port): messages are the unit of
// load balancing, not of rate allocation, so counting each message as a
// flow would understate everyone's fair share.
func (l *Link) trackFlow(pkt *Packet, now time.Duration) {
	if !l.cfg.StampRate {
		return
	}
	key := pkt.FlowID
	if pkt.Hdr != nil {
		key = uint64(pkt.Src)<<16 | uint64(pkt.Hdr.SrcPort)
	}
	l.flowSeen[key] = now
	// Opportunistic pruning keeps the map bounded.
	if len(l.flowSeen) > 64 {
		for id, seen := range l.flowSeen {
			if now-seen > l.flowWindow {
				delete(l.flowSeen, id)
			}
		}
	}
}

// fairRate returns the RCP-style per-flow fair share of the link: capacity
// divided by the number of recently active flows, derated slightly to keep
// the queue short.
func (l *Link) fairRate(now time.Duration) float64 {
	active := 0
	for _, seen := range l.flowSeen {
		if now-seen <= l.flowWindow {
			active++
		}
	}
	if active < 1 {
		active = 1
	}
	return 0.95 * l.cfg.Rate / float64(active)
}
