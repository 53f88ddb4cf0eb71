package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"mtp/internal/cc"
	"mtp/internal/pathlet"
	"mtp/internal/wire"
)

// Config parameterizes an Endpoint.
type Config struct {
	// LocalPort identifies the application on this endpoint.
	LocalPort uint16

	// Epoch is this endpoint's incarnation number, stamped on every outgoing
	// packet. Nonzero epochs enable peer-restart detection: the endpoint
	// tracks the last-seen epoch per peer, drops packets carrying an older
	// one (stragglers from a dead incarnation), and on a newer one resets
	// all per-peer protocol state — duplicate suppression, reassembly,
	// in-flight acknowledgements, congestion estimates — before processing
	// the packet. Zero (the default, and the simulator's setting) disables
	// the machinery entirely: endpoints that never restart pay nothing.
	Epoch uint32

	// MSS is the maximum payload bytes per packet. Default 1460.
	MSS int

	// TC is the traffic class stamped on outgoing messages (the sending
	// entity for per-entity isolation).
	TC uint8

	// CC selects the congestion-control algorithm built per pathlet.
	// Default DCTCP.
	CC cc.Kind
	// CCConfig tunes the per-pathlet algorithms. MSS is filled from Config.
	CCConfig cc.Config
	// CCFactory overrides CC/CCConfig with a custom per-pathlet factory.
	CCFactory pathlet.Factory

	// RTO is the retransmission timeout toward a peer before the first RTT
	// sample from it, and the horizon of the re-NACK hold-off toward a peer
	// this endpoint never sent to. Default 1ms (datacenter scale).
	RTO time.Duration

	// MinRTO and MaxRTO bound the retransmission timeout. Each peer this
	// endpoint sends to gets its own SRTT/RTTVAR estimator (RFC 6298:
	// srtt + 4*rttvar, alpha=1/8, beta=1/4) driving the timeout toward that
	// peer, with exponential backoff on consecutive timeout rounds of that
	// peer's packets, clamped to [MinRTO, MaxRTO]. Retransmitted packets
	// never feed the estimator (Karn's rule), so under persistent loss a
	// backed-off timeout stays up until a first-transmission packet is
	// acknowledged. Both default to RTO, which pins the timeout at RTO: every
	// sample clamps to it and backoff has no room. A MaxRTO below MinRTO is
	// raised to it.
	MinRTO time.Duration
	MaxRTO time.Duration

	// DelegateTimeout, when positive, enables delegated-ACK semantics: an
	// ACK carrying wire.FlagDelegatedAck (spoofed by an in-network device)
	// opens the window like any ACK but leaves the message resendable. If no
	// end-to-end confirmation arrives within this duration — a final
	// (non-delegated) ACK, or the application observing the result and
	// calling Release — the delegated packets are retransmitted with
	// wire.FlagBypassOffload set, so the raw payload reaches the true
	// destination even if the delegating device has crashed. Zero (the
	// default) treats delegated ACKs as final, like any other ACK.
	DelegateTimeout time.Duration

	// OnMessage delivers completed inbound messages. m is the endpoint's
	// one delivery slot, valid only during the call and zeroed after it (the
	// contract Inbound has): copy the struct to keep it. m.Data is the
	// reassembly buffer, handed over to the callee, which may keep it.
	OnMessage func(m *InMessage)

	// OnMessageSent is invoked when an outbound message is fully
	// acknowledged. Once it returns the endpoint drops the message's payload
	// and packet state: m.Data() reads nil afterwards.
	OnMessageSent func(m *OutMessage)

	// AutoExclude enables the sender policy that asks the network to avoid
	// persistently marked pathlets via the header's path-exclude list
	// (exclude.go).
	AutoExclude bool

	// FailoverRTOs, when positive, enables pathlet failure recovery: a
	// pathlet that suffers this many consecutive retransmission-timeout
	// rounds with no returning feedback is declared dead — it is pushed onto
	// the wire path-exclude list, its unacknowledged packets fail over to
	// surviving pathlets (delivered packets are never resent), and it is
	// probed periodically for readmission. Zero disables detection.
	FailoverRTOs int

	// ProbeInterval is how often a dead pathlet is probed for readmission
	// (one packet omits it from the exclude list). Default 8×RTO when
	// FailoverRTOs is set.
	ProbeInterval time.Duration

	// FeedbackBudget caps the number of echoed feedback entries per ACK
	// (Section 4's header-overhead mitigation: "feedback can be selectively
	// returned"). The freshest entries win; zero means unlimited.
	FeedbackBudget int

	// Observer, when non-nil, receives every protocol event: the invariant
	// checker (internal/check) and package mtp's trace ring attach here. Nil
	// in normal operation.
	Observer Observer
}

// headerOverhead is the modelled fixed per-packet header cost (IP + framing,
// roughly) added to Outbound.Size on top of the encoded MTP header.
const headerOverhead = 40

// receiveTimeout garbage-collects incomplete inbound messages idle this long.
const receiveTimeout = 50 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = 1460
	}
	if c.CC == "" {
		c.CC = cc.KindDCTCP
	}
	if c.RTO <= 0 {
		c.RTO = time.Millisecond
	}
	if c.FailoverRTOs > 0 && c.ProbeInterval <= 0 {
		c.ProbeInterval = 8 * c.RTO
	}
	if c.MinRTO <= 0 {
		c.MinRTO = c.RTO
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = c.RTO
	}
	c.MaxRTO = max(c.MaxRTO, c.MinRTO)
	return c
}

// OutMessage is the sender-side state of one message.
type OutMessage struct {
	ID      uint64
	Dst     Addr
	DstPort uint16
	Pri     uint8
	TC      uint8
	Size    int
	Created time.Duration

	data []byte // nil for synthetic messages
	pkts []outPkt
	// peer is the destination's record, looked up once at Send so no packet
	// pays a map access for its timeout.
	peer *peer
	// nextNew indexes the first never-sent packet.
	nextNew int
	// ackedPkts counts acknowledged packets.
	ackedPkts int
	// lost counts the pktLost packets: they are resent lowest index first.
	lost int
	done bool
	// bypass marks retransmissions with wire.FlagBypassOffload: a delegated
	// ACK went unconfirmed, so in-network devices must pass the raw payload
	// through to the true destination.
	bypass bool
	// pkts1 inlines the packet-state slot for single-packet messages (the
	// common RPC case), saving the separate slice allocation.
	pkts1 [1]outPkt
}

// Done reports whether every packet has been acknowledged.
func (m *OutMessage) Done() bool { return m.done }

// Data returns the message's application payload (nil for synthetic
// messages, and once the message completed). Exposed for invariant checking;
// callers must not mutate it.
func (m *OutMessage) Data() []byte { return m.data }

// outPkt is the sender's record of one packet of an OutMessage.
type outPkt struct {
	offset uint32
	length uint16
	state  pktState
	// resent is Karn's flag: set once the packet went out a second time, so
	// its acknowledgement never feeds the RTT estimator.
	resent bool
	// path is the pathlet the packet last left on, sentAt when, and delegAt
	// when its delegated ACK landed (pktDelegated only).
	path    wire.PathTC
	sentAt  time.Duration
	delegAt time.Duration
}

// pktState is where one packet is in its life:
//
//	pktUnsent --send--> pktInFlight --NACK, timeout, failover--> pktLost --resend--> pktInFlight
//	pktInFlight, pktLost --delegated ACK--> pktDelegated --confirmation deadline--> pktLost
//	any sent state --final ACK, Release--> pktAcked
//	any state --peer restart (resetPeer)--> pktUnsent
//
// Two rules replace any per-packet bookkeeping:
//   - a packet's bytes count in the in-flight window of pathlet path exactly
//     while it is pktInFlight or pktLost (attributed);
//   - a packet counts in its message's lost exactly while it is pktLost.
type pktState uint8

const (
	pktUnsent    pktState = iota // never sent, or rewound by a peer restart
	pktInFlight                  // sent, awaiting acknowledgement
	pktLost                      // presumed lost, awaiting its resend
	pktDelegated                 // acknowledged by an in-network device only, awaiting confirmation
	pktAcked                     // acknowledged end to end, or released
)

// attributed reports whether p's bytes count in its pathlet's in-flight
// window.
func (p *outPkt) attributed() bool { return p.state == pktInFlight || p.state == pktLost }

// InMessage is a completed inbound message. The endpoint hands out one
// reused InMessage (Config.OnMessage, Event.In); Data is the only part that
// outlives the call.
type InMessage struct {
	From     Addr
	SrcPort  uint16
	DstPort  uint16
	MsgID    uint64
	Pri      uint8
	TC       uint8
	Size     int
	Data     []byte // nil when the sender used a synthetic payload
	Complete time.Duration
}

// Endpoint is one MTP protocol instance.
type Endpoint struct {
	cfg Config
	env Env

	table  *pathlet.Table
	nextID uint64

	// Sender state.
	active []*OutMessage // unfinished messages in arrival (and so ID) order

	// Pacing state for rate-based pathlets.
	nextSendAt time.Duration

	// peers holds one record per remote address (peer.go): the only map
	// keyed by Addr.
	peers map[Addr]*peer

	// Receiver state. inflowOrder tracks partial messages in arrival order:
	// every scan walks it instead of ranging over the map, so packet emission
	// order is deterministic run to run.
	inflows     map[inKey]*inMsg
	inflowOrder []*inMsg

	// ackOrder lists the peers with a pending ACK in batch-creation order,
	// the order they are flushed in.
	ackOrder []*peer
	// inBatch is set between BeginBatch and EndBatch: ACK flushes and the
	// sender's post-ACK trySend wait for EndBatch. sendDue records that an
	// ACK packet or a peer restart released sends: they go out at the end of
	// OnPacket, or at EndBatch inside a bracket.
	inBatch bool
	sendDue bool

	// dead lists the pathlets failover holds dead, in declaration order
	// (failover.go).
	dead []*pathlet.State

	// Hot-path scratch and pools. The engine drives the endpoint from a
	// single goroutine (or under the owner's lock), so plain slices suffice.
	inMsgPool  []*inMsg      // recycled receiver message state
	batchPool  []*ackBatch   // recycled ack batches, list capacity included
	outScratch Outbound      // reused for every Output call (Env must not retain it)
	lossPaths  []wire.PathTC // per-ACK/timeout scratch of pathlets with losses
	completed  []*OutMessage // per-ACK scratch of messages finishing on this ACK

	// Outgoing headers live in these two structs; Env.Output consumes them
	// before it returns.
	dataHdr wire.Header // scratch header for data packets
	ackHdr  wire.Header // scratch header for ACK packets
	// event is the one Event handed to the Observer (see observe).
	event Event
	// delivery is the one InMessage handed to the Observer and OnMessage
	// for each completed message, zeroed after both return.
	delivery InMessage
	// backedOff is OnTimer's scratch of the peers whose packets expired in
	// one firing.
	backedOff []*peer

	// Stats counts protocol events.
	Stats EndpointStats

	timerAt time.Duration
}

// EndpointStats aggregates counters useful in tests and experiments.
type EndpointStats struct {
	MsgsSent      uint64
	MsgsCompleted uint64
	MsgsDelivered uint64
	PktsSent      uint64
	PktsRetx      uint64
	PktsReceived  uint64
	PktsDuplicate uint64
	// PayloadBytes counts newly received (non-duplicate) payload bytes —
	// receiver-side goodput.
	PayloadBytes  uint64
	AcksSent      uint64
	AcksReceived  uint64
	NacksSent     uint64
	NacksReceived uint64
	Timeouts      uint64
	// Exclusions counts pathlets the auto-exclude policy asked the network
	// to avoid.
	Exclusions uint64
	// Failovers counts pathlets declared dead after consecutive RTOs.
	Failovers uint64
	// ProbesSent counts readmission probes toward dead pathlets.
	ProbesSent uint64
	// Readmissions counts dead pathlets revived by returning feedback.
	Readmissions uint64
	// DelegatedAcks counts packets acknowledged provisionally by an
	// in-network device (wire.FlagDelegatedAck).
	DelegatedAcks uint64
	// DelegateTimeouts counts delegated packets whose end-to-end
	// confirmation never arrived and that were queued for bypass
	// retransmission.
	DelegateTimeouts uint64
	// MsgsReleased counts messages completed by an explicit Release call
	// (application-level end-to-end confirmation).
	MsgsReleased uint64
	// RTOBackoffs counts exponential RTO doublings (zero while MinRTO ==
	// MaxRTO).
	RTOBackoffs uint64
	// StaleEpochDrops counts packets discarded for carrying an incarnation
	// epoch older than the peer's last-seen one.
	StaleEpochDrops uint64
	// EpochBumps counts peer restarts detected (a packet arrived with a
	// newer incarnation epoch and the peer's state was reset).
	EpochBumps uint64
}

type inKey struct {
	peer    *peer
	srcPort uint16
	msgID   uint64
}

type inMsg struct {
	key inKey
	// srcPort/dstPort are the latest port pair seen for the message
	// (mutation-tolerant), used to address the ACKs it generates.
	srcPort  uint16
	dstPort  uint16
	got      []bool
	gotPkts  int
	data     []byte
	synthtic bool
	bytes    int
	lastSeen time.Duration
	// prefix is the length of the contiguous received prefix: got[:prefix]
	// is all true, so the gap scan starts there. high is the highest packet
	// number received: the holes are the unset entries of got[prefix:high].
	prefix int
	high   int
	// nacked records when each hole was last NACKed. Allocated lazily: most
	// messages complete without ever observing a hole.
	nacked map[uint32]time.Duration
}

type ackBatch struct {
	sack     []wire.PacketRef
	nack     []wire.PacketRef
	feedback []wire.Feedback
	srcPort  uint16 // remote app port the data came from (ACK's DstPort)
	dstPort  uint16 // our port (ACK's SrcPort)
}

// NewEndpoint builds an endpoint bound to env.
func NewEndpoint(env Env, cfg Config) *Endpoint {
	cfg = cfg.withDefaults()
	e := &Endpoint{
		cfg:     cfg,
		env:     env,
		peers:   make(map[Addr]*peer),
		inflows: make(map[inKey]*inMsg),
		nextID:  1,
	}
	factory := cfg.CCFactory
	if factory == nil {
		ccCfg := cfg.CCConfig
		ccCfg.MSS = cfg.MSS
		factory = func(wire.PathTC) cc.Algorithm {
			a, err := cc.New(cfg.CC, ccCfg)
			if err != nil {
				panic(fmt.Sprintf("core: %v", err))
			}
			return a
		}
	}
	e.table = pathlet.NewTable(factory)
	return e
}

// Table exposes the pathlet state table (read-mostly; used by experiments
// and for manual exclusion policy).
func (e *Endpoint) Table() *pathlet.Table { return e.table }

// Config returns the endpoint's effective configuration.
func (e *Endpoint) Config() Config { return e.cfg }

// SendOptions tune one message.
type SendOptions struct {
	// Priority is the application-assigned relative priority; higher values
	// are scheduled first among parallel messages.
	Priority uint8
}

// Send queues data as one message to dst:dstPort and returns its handle.
func (e *Endpoint) Send(dst Addr, dstPort uint16, data []byte, opts SendOptions) *OutMessage {
	m := new(OutMessage)
	e.SendInto(m, dst, dstPort, data, opts)
	return m
}

// SendInto is Send into storage the caller provides, so a caller that wraps
// the message in its own handle allocates one object, not two. m is
// overwritten; it belongs to the endpoint from this call until the message
// completes (OnMessageSent, or Release) and must not be reused before.
func (e *Endpoint) SendInto(m *OutMessage, dst Addr, dstPort uint16, data []byte, opts SendOptions) {
	e.initMessage(m, dst, dstPort, len(data), opts)
	m.data = data
	e.push(m)
}

// SendSynthetic queues a message of the given size whose payload bytes are
// not materialized — the tool for high-rate throughput experiments.
func (e *Endpoint) SendSynthetic(dst Addr, dstPort uint16, size int, opts SendOptions) *OutMessage {
	m := new(OutMessage)
	e.initMessage(m, dst, dstPort, size, opts)
	e.push(m)
	return m
}

func (e *Endpoint) initMessage(m *OutMessage, dst Addr, dstPort uint16, size int, opts SendOptions) {
	if size <= 0 {
		panic("core: empty message")
	}
	*m = OutMessage{
		ID:      e.nextID,
		Dst:     dst,
		DstPort: dstPort,
		Pri:     opts.Priority,
		TC:      e.cfg.TC,
		Size:    size,
		Created: e.env.Now(),
		peer:    e.peerFor(dst),
	}
	m.peer.sent = true
	e.nextID++
	npkts := (size + e.cfg.MSS - 1) / e.cfg.MSS
	if npkts == 1 {
		m.pkts = m.pkts1[:1]
	} else {
		m.pkts = make([]outPkt, npkts)
	}
	off := 0
	for i := range m.pkts {
		l := e.cfg.MSS
		if size-off < l {
			l = size - off
		}
		m.pkts[i] = outPkt{offset: uint32(off), length: uint16(l)}
		off += l
	}
}

func (e *Endpoint) push(m *OutMessage) {
	e.active = append(e.active, m)
	e.Stats.MsgsSent++
	if e.cfg.Observer != nil {
		e.observe(Event{Kind: KindQueued, Msg: m.ID, A: uint64(m.Size), Out: m})
	}
	e.trySend()
}

// Pending returns the number of unfinished outbound messages.
func (e *Endpoint) Pending() int { return len(e.active) }

// Release completes an outbound message on application-level end-to-end
// confirmation. With delegated ACKs (Config.DelegateTimeout) a message
// acknowledged only by an in-network device stays resendable until the
// application observes the result it delegated for — an aggregated round
// broadcast, a cache response — and calls Release. Remaining packets are
// treated as delivered: nothing is retransmitted and in-flight attribution
// is dropped. It reports whether the message was still pending.
func (e *Endpoint) Release(m *OutMessage) bool {
	if m == nil || m.done || e.lookup(m.ID) != m {
		return false
	}
	for i := range m.pkts {
		p := &m.pkts[i]
		if p.attributed() {
			e.table.RemoveInflight(p.path, int(p.length))
		}
		if p.state != pktAcked {
			p.state = pktAcked
			m.ackedPkts++
		}
	}
	m.lost = 0
	m.done = true
	e.removeCompleted()
	e.Stats.MsgsReleased++
	e.finish(m)
	e.trySend()
	return true
}

// finish reports a message that completed and was taken off the active list,
// then lets go of its payload and packet state: the handle may outlive the
// message (package mtp's Outgoing holds it), the payload must not.
func (e *Endpoint) finish(m *OutMessage) {
	e.Stats.MsgsCompleted++
	e.emit(KindComplete, m.ID, 0, uint64(m.Size), 0)
	if e.cfg.OnMessageSent != nil {
		e.cfg.OnMessageSent(m)
	}
	m.data, m.pkts = nil, nil
}

// lookup returns the unfinished message with the given ID, or nil. IDs are
// assigned in increasing order at Send and removeCompleted keeps the order
// of e.active, so a binary search finds it.
func (e *Endpoint) lookup(id uint64) *OutMessage {
	i, ok := slices.BinarySearchFunc(e.active, id, func(m *OutMessage, id uint64) int { return cmp.Compare(m.ID, id) })
	if !ok {
		return nil
	}
	return e.active[i]
}

// msgFloor returns the sender-side acknowledged-message floor advertised in
// outgoing data headers: the smallest unfinished message ID, or the next ID
// to be assigned when nothing is in flight. e.active is kept in Send order
// and IDs are assigned monotonically, so the head of the slice is the
// minimum and the computation is O(1) per packet.
func (e *Endpoint) msgFloor() uint64 {
	if len(e.active) > 0 {
		return e.active[0].ID
	}
	return e.nextID
}

// allocInMsg returns receiver message state for key with a cleared npkts-sized
// bitmap, recycling pooled state when available.
func (e *Endpoint) allocInMsg(key inKey, npkts int) *inMsg {
	var f *inMsg
	if k := len(e.inMsgPool); k > 0 {
		f = e.inMsgPool[k-1]
		e.inMsgPool[k-1] = nil
		e.inMsgPool = e.inMsgPool[:k-1]
	} else {
		f = &inMsg{}
	}
	f.key = key
	if cap(f.got) >= npkts {
		f.got = f.got[:npkts]
		clear(f.got)
	} else {
		f.got = make([]bool, npkts)
	}
	return f
}

// releaseInMsg recycles receiver message state (and drops it from the map and
// the ordered scan list). The payload buffer is handed off to the delivered
// InMessage (never reused), everything else is kept.
func (e *Endpoint) releaseInMsg(f *inMsg) {
	delete(e.inflows, f.key)
	for i, g := range e.inflowOrder {
		if g == f {
			e.inflowOrder = append(e.inflowOrder[:i], e.inflowOrder[i+1:]...)
			break
		}
	}
	f.key = inKey{}
	f.srcPort, f.dstPort = 0, 0
	f.gotPkts = 0
	f.prefix = 0
	f.high = 0
	f.data = nil
	f.synthtic = false
	f.bytes = 0
	f.lastSeen = 0
	clear(f.nacked)
	e.inMsgPool = append(e.inMsgPool, f)
}

// dropInMsgs releases every partial message drop selects, scanning in
// arrival order. releaseInMsg removes the entry from inflowOrder, so only
// survivors advance the scan.
func (e *Endpoint) dropInMsgs(drop func(*inMsg) bool) {
	for i := 0; i < len(e.inflowOrder); {
		if f := e.inflowOrder[i]; drop(f) {
			e.releaseInMsg(f)
		} else {
			i++
		}
	}
}

// allocBatch returns an empty ack batch, recycling pooled structs and the
// capacity of their lists.
func (e *Endpoint) allocBatch(srcPort, dstPort uint16) *ackBatch {
	if k := len(e.batchPool); k > 0 {
		b := e.batchPool[k-1]
		e.batchPool[k-1] = nil
		e.batchPool = e.batchPool[:k-1]
		b.srcPort, b.dstPort = srcPort, dstPort
		return b
	}
	return &ackBatch{srcPort: srcPort, dstPort: dstPort}
}

// releaseBatch recycles an ack batch after flush. The ACK header that
// borrowed its lists was consumed inside Output, so they are truncated in
// place and the next batch reuses their capacity.
func (e *Endpoint) releaseBatch(b *ackBatch) {
	*b = ackBatch{sack: b.sack[:0], nack: b.nack[:0], feedback: b.feedback[:0]}
	e.batchPool = append(e.batchPool, b)
}

// output emits one packet through the environment using the shared scratch
// Outbound (Env implementations must not retain the pointer).
func (e *Endpoint) output(dst Addr, hdr *wire.Header, data []byte, size int) {
	e.outScratch = Outbound{Dst: dst, Hdr: hdr, Data: data, Size: size}
	e.env.Output(&e.outScratch)
	e.outScratch.Data = nil // hold no payload past the call
}

// setTimer coalesces timer requests to the earliest pending deadline. A
// pending deadline that is already due stays put: its OnTimer is on the way.
func (e *Endpoint) setTimer(at time.Duration) {
	if at <= 0 {
		return
	}
	if e.timerAt != 0 && e.timerAt <= at {
		return
	}
	e.timerAt = at
	e.env.SetTimer(at)
}
