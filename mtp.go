// Package mtp is a userspace implementation of MTP, the message transport
// protocol for in-network computing from "TCP is Harmful to In-Network
// Computing: Designing a Message Transport Protocol" (HotNets'21).
//
// Messages — not byte streams — are the unit of transmission,
// acknowledgement, retransmission, scheduling, and load balancing. Every
// packet carries its message's identity and length, so network devices can
// act on messages with bounded state: caches can answer requests in-network,
// balancers can steer whole messages, and offloads can mutate data in
// flight. Congestion control is per (pathlet, traffic class): the network
// stamps feedback for the resources a packet crossed into its header, the
// receiver echoes it, and the sender evolves one congestion window per
// pathlet, so path changes never invalidate learned state.
//
// A Node binds the protocol engine to a net.PacketConn whose addresses are
// UDP addresses (a socket, or a wrapper around one) or to the in-memory
// network from NewMemNetwork in tests. Every Node runs the same datapath —
// internal/udpnet's Transport: a reader goroutine, a lock-free send ring that
// whoever filled it writes out, a shared timer wheel — whichever it is:
//
//	pc, _ := net.ListenPacket("udp", "127.0.0.1:0")
//	node, _ := mtp.NewNode(pc, mtp.Config{
//		Port:      7,
//		OnMessage: func(m mtp.Message) { fmt.Printf("%s\n", m.Data) },
//	})
//	defer node.Close()
//
//	// elsewhere
//	msg, _ := peer.Send(node.Addr().String(), 7, []byte("hello"))
//	<-msg.Done() // acknowledged end to end
//
// The same engine runs under virtual time in this repository's simulator,
// which is how the paper's evaluation figures are reproduced (see
// EXPERIMENTS.md).
package mtp

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"mtp/internal/cc"
	"mtp/internal/core"
	"mtp/internal/udpnet"
	"mtp/internal/wire"
)

// Config parameterizes a Node.
type Config struct {
	// Port identifies the application on this node (like a UDP port, but
	// inside MTP's own header).
	Port uint16

	// Epoch is the node's incarnation number, stamped on every outgoing
	// packet so peers detect a restart: packets from a dead incarnation are
	// dropped and per-peer protocol state (duplicate suppression,
	// reassembly, congestion estimates) is reset when a new incarnation
	// appears. Zero (the default) auto-seeds a per-boot epoch from the
	// millisecond clock, monotonic within the process; set it explicitly
	// only to pin incarnations in tests.
	Epoch uint32

	// MSS is the maximum message payload bytes per packet. The default of
	// 1200 leaves room for the MTP header inside a 1500-byte MTU datagram.
	MSS int

	// TC is the traffic class (entity) stamped on outgoing messages.
	TC uint8

	// CC selects the per-pathlet congestion control algorithm: "dctcp"
	// (default), "aimd", "rcp", or "swift".
	CC string

	// RTO is the retransmission timeout toward a peer before the first RTT
	// sample from it, and the ceiling afterwards: once a peer's RTT has been
	// measured the timeout toward it follows srtt + 4*rttvar (RFC 6298, one
	// estimator per peer), never below 1ms (the order of RFC 9002's
	// kGranularity; DESIGN §9 has the floor sweep that chose it) or RTO,
	// whichever is smaller, and never above RTO. Default 20ms
	// (wide-area safe; a rack-scale peer is timed at rack scale without
	// tuning it down).
	RTO time.Duration

	// OnMessage delivers completed inbound messages. It is called from the
	// node's receive goroutine; do not block.
	OnMessage func(m Message)

	// BlobPort, when non-zero, dedicates one MTP port to the bulk-data
	// (blob) mode: messages arriving on it are reassembled into blobs and
	// delivered via OnBlob instead of OnMessage.
	BlobPort uint16
	// OnBlob delivers completed blobs (requires BlobPort).
	OnBlob func(b Blob)

	// TraceEvents, when positive, keeps a ring of that many protocol
	// events (sends, acks, retransmissions, deliveries) readable via
	// Node.TraceDump — lightweight always-on diagnostics.
	TraceEvents int
}

// Message is a completed inbound message.
type Message struct {
	// From is the sender's network address (reply with Node.Send to
	// From.String()).
	From net.Addr
	// SrcPort/DstPort are the MTP ports.
	SrcPort, DstPort uint16
	// ID is the sender-assigned message ID.
	ID uint64
	// Priority is the application priority the sender assigned.
	Priority uint8
	// TC is the sender's traffic class.
	TC uint8
	// Data is the reassembled payload. It belongs to the application: the
	// node keeps no reference to it once OnMessage is called.
	Data []byte
}

// Outgoing tracks one message submitted with Send.
type Outgoing struct {
	ID   uint64
	done chan struct{}
	// blob is set instead of done for a chunk of a SendBlob blob.
	blob *BlobOutgoing
	// msg is the engine's send state for the message (core.SendInto), held
	// here so one allocation serves both; unused for a blob chunk. The
	// engine drops its payload on completion, so a kept handle pins none.
	msg core.OutMessage
}

// Done is closed when every packet of the message has been acknowledged.
func (o *Outgoing) Done() <-chan struct{} { return o.done }

// finish marks the message acknowledged: it closes Done, or counts one chunk
// of its blob and closes the blob's Done after the last. Called under mu.
func (o *Outgoing) finish() {
	b := o.blob
	if b == nil {
		close(o.done)
		return
	}
	if b.remaining--; b.remaining == 0 {
		close(b.done)
	}
}

// Node is one MTP endpoint bound to a packet connection.
type Node struct {
	pc  net.PacketConn
	cfg Config

	// tr is the datapath (internal/udpnet): it owns pc, the reader
	// goroutine, the outbound ring, and the timer. Batched syscalls on a real
	// UDP socket, one datagram per call on any other PacketConn. Peers are
	// keyed by netip.AddrPort throughout.
	tr *udpnet.Transport

	// mu guards the engine and everything below. Whoever releases it after
	// engine work does so through unlock, which writes what the engine queued.
	mu      sync.Mutex
	ep      *core.Endpoint
	waiters map[uint64]*Outgoing
	closed  bool
	// keyByName/fromByAP are the peer caches: address string → normalized
	// AddrPort key, pre-boxed as core.Addr (filled by sendKey), and AddrPort
	// key → net.Addr for Message.From (filled by fromAddr, so only peers that
	// delivered a message are held).
	keyByName map[string]core.Addr
	fromByAP  map[netip.AddrPort]net.Addr
	// trIn is the reused Inbound for transport-delivered packets (the
	// endpoint copies what it keeps before OnPacket returns). lastFrom is
	// the previous packet's source and trIn.From its boxed form, so a run of
	// packets from one peer boxes the key once.
	trIn     core.Inbound
	lastFrom netip.AddrPort
	// batchOpen is set while the reader goroutine holds mu across one inbound
	// batch (first onTransportPacket to onBatchEnd). Reader goroutine only.
	batchOpen bool
	// inbox stages completed messages while mu is held; they are handed to
	// cfg.OnMessage after the lock is released so the handler may call
	// Send and friends.
	inbox inbox[Message]
	blob  blobState
	// trace is the event ring behind TraceDump; nil unless
	// Config.TraceEvents is set.
	trace *traceRing

	// RPC layer state (rpc.go).
	rpc         rpcState
	rpcHandlers map[uint16]Handler
}

// NewNode binds an MTP endpoint to pc and starts its I/O goroutines. The node
// owns pc and closes it on Close.
func NewNode(pc net.PacketConn, cfg Config) (*Node, error) {
	if pc == nil {
		return nil, errors.New("mtp: nil PacketConn")
	}
	if cfg.MSS == 0 {
		cfg.MSS = 1200
	}
	if cfg.MSS < 64 || cfg.MSS > 60000 {
		return nil, fmt.Errorf("mtp: MSS %d out of range", cfg.MSS)
	}
	if cfg.RTO == 0 {
		cfg.RTO = 20 * time.Millisecond
	}
	kind := cc.Kind(cfg.CC)
	if cfg.CC == "" {
		kind = cc.KindDCTCP
	}
	if _, err := cc.New(kind, cc.Config{MSS: cfg.MSS}); err != nil {
		return nil, fmt.Errorf("mtp: %w", err)
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = newEpoch()
	}

	n := &Node{
		pc:        pc,
		cfg:       cfg,
		waiters:   make(map[uint64]*Outgoing),
		keyByName: make(map[string]core.Addr),
		fromByAP:  make(map[netip.AddrPort]net.Addr),
	}
	maxDgram := cfg.MSS + 1024 // header room; ACK-only packets are smaller
	if maxDgram < 4096 {
		maxDgram = 4096
	}
	tr, err := udpnet.NewTransport(udpnet.Config{
		Conn:        pc,
		MaxDatagram: maxDgram,
		OnPacket:    n.onTransportPacket,
		OnBatchEnd:  n.onBatchEnd,
		OnTimer:     n.onTimer,
	})
	if err != nil {
		return nil, fmt.Errorf("mtp: %w", err)
	}
	n.tr = tr
	coreCfg := core.Config{
		LocalPort: cfg.Port,
		Epoch:     cfg.Epoch,
		MSS:       cfg.MSS,
		TC:        cfg.TC,
		CC:        kind,
		RTO:       cfg.RTO,
		MaxRTO:    cfg.RTO,
		MinRTO:    min(cfg.RTO, rtoFloor),
		OnMessage: n.deliver,
		OnMessageSent: func(m *core.OutMessage) {
			if w, ok := n.waiters[m.ID]; ok {
				delete(n.waiters, m.ID)
				w.finish()
			}
		},
	}
	if cfg.TraceEvents > 0 {
		n.trace = newTraceRing(cfg.TraceEvents)
		coreCfg.Observer = n.trace
	}
	n.ep = core.NewEndpoint(n, coreCfg)

	n.tr.Start()
	return n, nil
}

// rtoFloor floors the adaptive RTO at 1 ms: the same order as RFC 9002's
// kGranularity, which floors only the variance term, and chosen by the floor
// sweep in DESIGN §9. The wheel never fires a timer early, so the floor needs
// no margin for its rounding.
// An explicit Config.RTO below the floor wins: it stays both floor and
// ceiling.
const rtoFloor = time.Millisecond

// epochLast remembers the most recent incarnation epoch handed out in this
// process, so same-process restarts (a Node closed and reopened within one
// millisecond, common in tests and respawned workers) still get strictly
// increasing epochs.
var epochLast atomic.Uint32

// newEpoch derives a per-boot incarnation epoch from the millisecond clock.
// The value lives in a wrapping uint32 space compared with serial-number
// arithmetic (wire.EpochNewer), so successive boots order correctly as long
// as they are less than ~24.8 days apart — far beyond any straggler packet's
// lifetime.
func newEpoch() uint32 {
	for {
		last := epochLast.Load()
		cand := uint32(time.Now().UnixMilli())
		if cand == 0 {
			cand = 1
		}
		if last != 0 && !wire.EpochNewer(cand, last) {
			cand = last + 1
			if cand == 0 {
				cand = 1
			}
		}
		if epochLast.CompareAndSwap(last, cand) {
			return cand
		}
	}
}

// onTransportPacket feeds one decoded datagram from the transport reader
// into the engine. The first packet of a reader batch takes mu and opens the
// endpoint's batch bracket; onBatchEnd closes both, so a batch costs one lock
// hand-off, one ACK per peer and one trySend however many datagrams it holds
// (a connIO batch holds one, which is the unbracketed behaviour). hdr and data
// are only valid during the call; the endpoint copies what it keeps
// (core.Inbound contract).
func (n *Node) onTransportPacket(from netip.AddrPort, hdr *wire.Header, data []byte) {
	if !n.batchOpen {
		n.mu.Lock()
		n.batchOpen = true
		if !n.closed {
			n.ep.BeginBatch()
		}
	}
	if n.closed { // set under mu, so it cannot change inside a batch
		return
	}
	if from != n.lastFrom { // the transport never delivers the zero AddrPort
		n.lastFrom, n.trIn.From = from, from
	}
	n.trIn.Hdr, n.trIn.Data = hdr, data
	n.ep.OnPacket(&n.trIn)
}

// onBatchEnd runs after the reader delivered a batch (possibly of nothing but
// undecodable datagrams, in which case mu was never taken): it closes the
// bracket, releases mu — writing the bracket's ACKs before any handler runs —
// and hands completed messages to the application.
func (n *Node) onBatchEnd() {
	if n.batchOpen {
		n.batchOpen = false
		n.ep.EndBatch()
		n.unlock()
	}
	n.drainAll()
}

// unlock releases mu and then writes what the engine queued while it was
// held: the caller that caused a write pays for it, no syscall runs under mu,
// and callers releasing mu concurrently combine into one writer.
func (n *Node) unlock() {
	n.mu.Unlock()
	n.tr.Flush()
}

// Addr returns the node's network address.
func (n *Node) Addr() net.Addr { return n.pc.LocalAddr() }

// Stats is a snapshot of a Node's protocol and transport counters.
type Stats struct {
	core.EndpointStats
	// RingFullDrops counts outgoing packets dropped because the transport's
	// send ring was full — NIC-style local drops, recovered by
	// retransmission but distinct from network loss.
	RingFullDrops uint64
	// TruncatedDrops counts received datagrams dropped because they were
	// larger than this node's receive buffers (a peer whose MSS exceeds what
	// this node sized for) or otherwise shorter than their header states.
	TruncatedDrops uint64
	// DatagramsIn/Out and BatchesIn/Out count the transport's datagrams and
	// the syscalls that moved them: DatagramsIn/BatchesIn is the achieved
	// receive batching, and AcksSent against PktsReceived the ACK thinning it
	// buys.
	DatagramsIn, DatagramsOut uint64
	BatchesIn, BatchesOut     uint64
	// KernelMsgsIn/Out count the messages those syscalls carried. Where the
	// socket has UDP segmentation offload one kernel message is a run of
	// datagrams, so DatagramsOut/KernelMsgsOut well above 1 says it engaged;
	// everywhere else the counts equal the datagram counts.
	KernelMsgsIn, KernelMsgsOut uint64
}

// Stats returns a snapshot of protocol counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	es := n.ep.Stats
	n.mu.Unlock()
	ts := n.tr.Stats()
	return Stats{
		EndpointStats:  es,
		RingFullDrops:  ts.RingFullDrops,
		TruncatedDrops: ts.TruncatedDrops,
		DatagramsIn:    ts.DatagramsIn,
		DatagramsOut:   ts.DatagramsOut,
		BatchesIn:      ts.BatchesIn,
		BatchesOut:     ts.BatchesOut,
		KernelMsgsIn:   ts.KernelMsgsIn,
		KernelMsgsOut:  ts.KernelMsgsOut,
	}
}

// RTT reports the engine's smoothed round-trip time and current
// retransmission timeout toward the peer at addr. ok is false until the node
// has sent to that peer; srtt is zero until a first-transmission packet has
// been acknowledged.
func (n *Node) RTT(addr string) (srtt, rto time.Duration, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key, known := n.keyByName[addr]
	if !known {
		return 0, 0, false
	}
	return n.ep.PeerRTT(key)
}

// Epoch returns the node's incarnation epoch (auto-seeded unless pinned via
// Config.Epoch).
func (n *Node) Epoch() uint32 { return n.cfg.Epoch }

// TraceDump renders the retained protocol event trace (empty unless
// Config.TraceEvents was set).
func (n *Node) TraceDump() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.trace == nil {
		return ""
	}
	return n.trace.dump()
}

// Send queues data as one MTP message to the peer at addr (a network
// address string resolvable by the underlying PacketConn's network) and MTP
// port dstPort. The returned handle's Done channel closes when the message
// is fully acknowledged.
func (n *Node) Send(addr string, dstPort uint16, data []byte) (*Outgoing, error) {
	return n.SendPriority(addr, dstPort, data, 0)
}

// SendPriority is Send with an application priority: higher-priority
// messages are scheduled first among this node's parallel messages.
func (n *Node) SendPriority(addr string, dstPort uint16, data []byte, priority uint8) (*Outgoing, error) {
	if len(data) == 0 {
		return nil, errors.New("mtp: empty message")
	}
	n.mu.Lock()
	defer n.unlock()
	if n.closed {
		return nil, errors.New("mtp: node closed")
	}
	key, err := n.sendKey(addr)
	if err != nil {
		return nil, err
	}
	out := &Outgoing{done: make(chan struct{})}
	n.ep.SendInto(&out.msg, key, dstPort, data, core.SendOptions{Priority: priority})
	out.ID = out.msg.ID
	if out.msg.Done() {
		close(out.done) // tiny message fully acked already (loopback)
	} else {
		n.waiters[out.ID] = out
	}
	return out, nil
}

// sendKey resolves a peer address string to the engine's peer key, a
// normalized netip.AddrPort (comparable without per-packet string
// conversions). sendKey and fromAddr are the only places that know an
// in-memory network's names from UDP addresses. Called under mu.
func (n *Node) sendKey(addr string) (core.Addr, error) {
	if key, ok := n.keyByName[addr]; ok {
		return key, nil
	}
	var ap netip.AddrPort
	if _, mem := n.pc.LocalAddr().(memAddr); mem {
		ap = memAddr(addr).AddrPort()
	} else {
		ua, err := net.ResolveUDPAddr(n.pc.LocalAddr().Network(), addr)
		if err != nil {
			return nil, err
		}
		p := ua.AddrPort()
		ap = netip.AddrPortFrom(p.Addr().Unmap(), p.Port())
	}
	key := core.Addr(ap)
	n.keyByName[addr] = key
	return key, nil
}

// fromAddr converts a peer key back to a net.Addr for delivery to the
// application, once per peer. Called under mu.
func (n *Node) fromAddr(key core.Addr) net.Addr {
	ap, ok := key.(netip.AddrPort)
	if !ok {
		return nil
	}
	from := n.fromByAP[ap]
	if from == nil {
		if _, mem := n.pc.LocalAddr().(memAddr); mem {
			from = memAddr(ap.Addr().Zone())
		} else {
			from = net.UDPAddrFromAddrPort(ap)
		}
		n.fromByAP[ap] = from
	}
	return from
}

// Close shuts the node down and closes the underlying connection.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.unlock()
	// Transport owns the socket, the reader, and the wheel timer; Close
	// tears all three down, waits for the reader and recycles what its ring
	// still holds.
	return n.tr.Close()
}

// deliver stages a completed message for the user callback. Called under mu.
func (n *Node) deliver(m *core.InMessage) {
	if n.cfg.BlobPort != 0 && m.DstPort == n.cfg.BlobPort {
		n.feedBlob(m)
		return
	}
	if n.cfg.OnMessage == nil && n.rpcHandlers == nil && n.rpc.pending == nil {
		return
	}
	from := n.fromAddr(m.From)
	n.inbox.staged = append(n.inbox.staged, Message{
		From:     from,
		SrcPort:  m.SrcPort,
		DstPort:  m.DstPort,
		ID:       m.MsgID,
		Priority: m.Pri,
		TC:       m.TC,
		Data:     m.Data,
	})
}

// inbox stages what the engine completes while Node.mu is held, for
// handling after the lock is released.
type inbox[T any] struct {
	staged []T
	// spare is a handled, cleared slice the next drain pass stages into, so
	// a steady stream reuses two slices instead of growing a new one.
	spare []T
}

// drain hands staged items to handle until none are left, taking mu once
// per pass: each pass swaps staged for spare and returns the slice the last
// pass handled, cleared so it pins nothing. Two goroutines may drain at once;
// each hands back only a slice it handled itself. Must be called without mu.
func (b *inbox[T]) drain(mu *sync.Mutex, handle func(T)) {
	var handled []T
	for {
		mu.Lock()
		if handled != nil {
			b.spare = handled
		}
		pending := b.staged
		if len(pending) == 0 {
			mu.Unlock()
			return
		}
		b.staged, b.spare = b.spare, nil
		mu.Unlock()
		for _, it := range pending {
			handle(it)
		}
		clear(pending)
		handled = pending[:0]
	}
}

// dispatch hands one staged message to the RPC layer or cfg.OnMessage.
func (n *Node) dispatch(m Message) {
	if n.handleRPC(m) {
		return
	}
	if n.cfg.OnMessage != nil {
		n.cfg.OnMessage(m)
	}
}

// drainAll flushes both message and blob staging areas. Must be called
// without mu.
func (n *Node) drainAll() {
	n.inbox.drain(&n.mu, n.dispatch)
	if n.cfg.OnBlob != nil {
		n.blob.inbox.drain(&n.mu, n.cfg.OnBlob)
	}
}

// --- core.Env implementation (wall-clock) ---

// Now implements core.Env: the wheel's clock, so SetTimer deadlines share a
// timebase.
func (n *Node) Now() time.Duration { return n.tr.Now() }

// Output implements core.Env. Called under mu. The packet is encoded into a
// pooled buffer before the call returns (the header is the endpoint's
// scratch) and queued on the lock-free outbound ring; no syscall runs here.
// It is written when mu is released (unlock). Every peer key comes from
// sendKey or the transport's reader, so it is always an AddrPort.
func (n *Node) Output(pkt *core.Outbound) {
	n.tr.Queue(pkt.Dst.(netip.AddrPort), pkt.Hdr, pkt.Data)
}

// SetTimer implements core.Env. Called under mu. A rearm that races an
// in-flight firing at worst delivers one spurious OnTimer, which the endpoint
// tolerates (it re-derives its deadlines every call).
func (n *Node) SetTimer(at time.Duration) { n.tr.SetTimer(at) }

// onTimer is the transport's timer callback (wheel goroutine).
func (n *Node) onTimer() {
	n.mu.Lock()
	if !n.closed {
		n.ep.OnTimer(n.Now())
	}
	n.unlock()
	n.drainAll()
}
