package simnet

// DropReason classifies why a packet left the network without delivery.
type DropReason int

// Drop reasons reported to the Observer.
const (
	// DropQueueFull is a drop-tail (or trim-headroom overflow) drop.
	DropQueueFull DropReason = iota
	// DropFault is loss to an injected fault: link down, blackhole, switch
	// crash, or a queue flush caused by one of those.
	DropFault
	// DropPolicer is a policer-enforced drop.
	DropPolicer
)

// String names the reason for diagnostics.
func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue-full"
	case DropFault:
		return "fault"
	case DropPolicer:
		return "policer"
	default:
		return "unknown"
	}
}

// Observer sees every packet life-cycle event in a Network. It exists for
// the invariant checker in internal/check: a registered observer lets an
// external party account for every packet (conservation), validate ECN
// marking against queue state, and audit forwarding decisions against
// header path-exclude lists. All hook sites are nil-guarded, so the
// zero-allocation hot path is unaffected when no observer is attached.
//
// Hook ordering contract: a drop hook always fires before the dropped
// packet is released, and PacketReleased fires for every release (pooled or
// not) before the packet's fields are reused.
type Observer interface {
	// PacketEnqueued fires when a packet is appended to link l's egress
	// queue qi. qlenBefore is that queue's length just before the append
	// (the value the ECN threshold was compared against); ecnMarked reports
	// whether this enqueue applied a threshold ECN mark.
	PacketEnqueued(l *Link, pkt *Packet, qi, qlenBefore int, ecnMarked bool)
	// PacketDropped fires when l discards a packet (before its release).
	PacketDropped(l *Link, pkt *Packet, reason DropReason)
	// PacketTrimmed fires when l trims a packet's payload (NDP-style); the
	// trimmed packet continues through the queue.
	PacketTrimmed(l *Link, pkt *Packet)
	// PacketDuplicated fires when an injected fault copies pkt into dup;
	// both then proceed through the enqueue path independently.
	PacketDuplicated(l *Link, pkt, dup *Packet)
	// PacketTxDone fires when l finishes serializing pkt onto the wire.
	PacketTxDone(l *Link, pkt *Packet)
	// PacketDelivered fires when pkt reaches l's destination node, before
	// the node's Receive runs.
	PacketDelivered(l *Link, pkt *Packet)
	// SwitchDropped fires when a crashed switch discards an arriving packet.
	SwitchDropped(sw *Switch, pkt *Packet)
	// ForwardChosen fires after a switch picks the egress link for pkt.
	// candidates is the unfiltered route set toward pkt.Dst; callers must
	// not retain or mutate it.
	ForwardChosen(sw *Switch, pkt *Packet, chosen *Link, candidates []*Link)
	// PacketReleased fires when a packet's life ends (delivery consumed or
	// drop finalized), before its fields are recycled.
	PacketReleased(pkt *Packet)
}

// SetObserver attaches obs to the network (nil detaches). Exactly one
// observer is supported; it sees events from every link, switch, and host.
func (n *Network) SetObserver(obs Observer) { n.obs = obs }
