package simnet

import (
	"fmt"

	"mtp/internal/sim"
	"mtp/internal/wire"
)

// Node is anything that can receive packets from a link.
type Node interface {
	// ID returns the node's address in the network.
	ID() NodeID
	// Receive handles a packet arriving over from.
	Receive(pkt *Packet, from *Link)
}

// Network owns the nodes and links of one simulated topology.
type Network struct {
	eng   *sim.Engine
	nodes map[NodeID]Node
	links []*Link
	next  NodeID

	// pktFree recycles Packets between delivery/drop and the next send so
	// the steady-state forwarding path allocates nothing. The engine is
	// single-threaded, so no locking.
	pktFree []*Packet
	// pktLive counts pooled packets currently out of the free-list;
	// pktHigh is its high-water mark. Together they tell a shard whether
	// its PreallocPackets sizing was right: high-water above the prealloc
	// count means the pool grew (allocated) mid-run.
	pktLive int
	pktHigh int

	// queuedPkts counts packets sitting in link egress queues network-wide,
	// maintained exactly by the three queue mutation sites (enqueue, the
	// transmit pop, FlushQueues). Occupancy probes use it to skip scanning
	// thousands of links when the fabric is quiescent — in a scale run's
	// drain phase that scan is most of the remaining event cost.
	queuedPkts int

	// obs, when non-nil, sees every packet event (see Observer). Nil in
	// normal operation.
	obs Observer
}

// poisonFreed enables the debug mode toggled by SetPoisonFreed.
var poisonFreed bool

// SetPoisonFreed toggles a debug mode for the packet free-list: released
// packets — and the header storage they own, list elements included, and
// their OwnedPayload — are overwritten with sentinel values and withheld from
// reuse, so a use-after-release of the Packet, of its Hdr, of a list sliced
// from that header, or of its payload reads obviously-wrong fields (and, under
// the race detector, a cross-goroutine stale read is a write/read race on the
// poisoned words). Double releases panic. Off by default; intended for tests.
func SetPoisonFreed(on bool) { poisonFreed = on }

// AllocPacket returns a zeroed packet from the network's free-list (or a
// fresh one). It is recycled automatically when a host delivers it or a link
// drops it; senders must not retain it, its Hdr after SetHeader, any list of
// that header, or an OwnedPayload they put in it past that point.
func (n *Network) AllocPacket() *Packet {
	n.pktLive++
	if n.pktLive > n.pktHigh {
		n.pktHigh = n.pktLive
	}
	if k := len(n.pktFree); k > 0 {
		p := n.pktFree[k-1]
		n.pktFree[k-1] = nil
		n.pktFree = n.pktFree[:k-1]
		p.released = false
		return p
	}
	return &Packet{pooled: true}
}

// PreallocPackets seeds the free-list with count packets in one contiguous
// slab. Shard builders size it from the owned host/link count so the
// forwarding path never grows the pool mid-run; PoolStats verifies the
// sizing after the fact.
func (n *Network) PreallocPackets(count int) {
	if count <= len(n.pktFree) {
		return
	}
	slab := make([]Packet, count-len(n.pktFree))
	if cap(n.pktFree) < count {
		free := make([]*Packet, len(n.pktFree), count)
		copy(free, n.pktFree)
		n.pktFree = free
	}
	for i := range slab {
		slab[i].pooled = true
		slab[i].released = true
		n.pktFree = append(n.pktFree, &slab[i])
	}
}

// PoolStats reports packet-pool occupancy: pooled packets currently checked
// out, the high-water mark of that count, and the free-list length.
func (n *Network) PoolStats() (live, highWater, free int) {
	return n.pktLive, n.pktHigh, len(n.pktFree)
}

// QueuedPackets returns the exact number of packets currently queued across
// every link in the network.
func (n *Network) QueuedPackets() int { return n.queuedPkts }

// ReleasePacket returns a pooled packet to the free-list. Packets not built
// by AllocPacket are ignored, so callers may release unconditionally.
func (n *Network) ReleasePacket(p *Packet) {
	if p == nil {
		return
	}
	if n.obs != nil && !p.released {
		n.obs.PacketReleased(p)
	}
	if !p.pooled {
		return
	}
	if p.released {
		panic("simnet: double release of pooled packet")
	}
	n.pktLive--
	if op, ok := p.Payload.(OwnedPayload); ok {
		op.Recycle(poisonFreed)
	}
	if poisonFreed {
		// Poison and withhold from the pool: stale readers see nonsense
		// values instead of the next packet's fields.
		if p.own != nil {
			poisonLists(p.own)
			*p.own = wire.Header{MsgID: ^uint64(0), PktNum: ^uint32(0)}
		}
		*p = Packet{
			Src: -1, Dst: -1, Size: -0x5EAD,
			Tenant: -0x5EAD, FlowID: ^uint64(0),
			pooled: true, released: true,
		}
		return
	}
	// The owned header stays with the packet, list capacities and stale
	// fields included (SetHeader overwrites it wholesale); the rest is zeroed.
	*p = Packet{pooled: true, released: true, own: p.own}
	n.pktFree = append(n.pktFree, p)
}

// poisonLists overwrites the elements of h's lists, out to their capacity, so
// a list sliced from a released header reads nonsense too.
func poisonLists(h *wire.Header) {
	bad := wire.PathTC{PathID: ^uint32(0), TC: 0xFF}
	exclude := h.PathExclude[:cap(h.PathExclude)]
	for i := range exclude {
		exclude[i] = bad
	}
	for _, l := range [][]wire.Feedback{h.PathFeedback, h.AckPathFeedback} {
		l = l[:cap(l)]
		for i := range l {
			l[i] = wire.Feedback{Path: bad, Type: 0xFF}
		}
	}
	for _, l := range [][]wire.PacketRef{h.SACK, h.NACK} {
		l = l[:cap(l)]
		for i := range l {
			l[i] = wire.PacketRef{MsgID: ^uint64(0), PktNum: ^uint32(0)}
		}
	}
}

// NewNetwork returns an empty topology bound to the engine.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{eng: eng, nodes: make(map[NodeID]Node)}
}

// Engine returns the underlying discrete-event engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// AllocID reserves a fresh node ID. Nodes built by callers register with
// Register.
func (n *Network) AllocID() NodeID {
	id := n.next
	n.next++
	return id
}

// Register adds a node to the topology.
func (n *Network) Register(node Node) {
	if _, dup := n.nodes[node.ID()]; dup {
		panic(fmt.Sprintf("simnet: duplicate node id %d", node.ID()))
	}
	n.nodes[node.ID()] = node
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// Connect creates a directed link from src's egress to dst and returns it.
// Bidirectional connectivity is two Connect calls (possibly with different
// configs, e.g. asymmetric rates).
func (n *Network) Connect(dst Node, cfg LinkConfig, name string) *Link {
	l := newLink(n, dst, cfg, name)
	n.links = append(n.links, l)
	return l
}

// Links returns all links for stats collection.
func (n *Network) Links() []*Link { return n.links }

// Host is a leaf node that delivers arriving packets to a handler and sends
// through a single uplink.
type Host struct {
	id      NodeID
	uplink  *Link
	handler func(pkt *Packet)
	net     *Network
}

// NewHost creates and registers a host. The handler may be set later with
// SetHandler (endpoints are usually attached after topology construction).
func NewHost(n *Network) *Host {
	h := &Host{id: n.AllocID(), net: n}
	n.Register(h)
	return h
}

// ID implements Node.
func (h *Host) ID() NodeID { return h.id }

// SetUplink sets the host's egress link.
func (h *Host) SetUplink(l *Link) { h.uplink = l }

// Uplink returns the host's egress link.
func (h *Host) Uplink() *Link { return h.uplink }

// SetHandler installs the packet delivery callback.
func (h *Host) SetHandler(fn func(pkt *Packet)) { h.handler = fn }

// Send transmits a packet via the host's uplink.
func (h *Host) Send(pkt *Packet) {
	if h.uplink == nil {
		panic(fmt.Sprintf("simnet: host %d has no uplink", h.id))
	}
	pkt.Src = h.id
	h.uplink.Enqueue(pkt)
}

// AllocPacket returns a recycled packet from the host's network; see
// Network.AllocPacket.
func (h *Host) AllocPacket() *Packet { return h.net.AllocPacket() }

// Receive implements Node. Delivery is the end of a packet's life: after the
// handler returns, pooled packets are recycled, so handlers must not retain
// the Packet, its Hdr, a list sliced from that header, or a Payload that is an
// OwnedPayload: the header storage and such a payload belong to the packet and
// carry the next ones. Copy (Header.Clone, a copy of the payload's fields) what
// must outlive the call. Data and any other Payload may be retained — those
// are dropped to the garbage collector, not reused.
func (h *Host) Receive(pkt *Packet, _ *Link) {
	if h.handler != nil {
		h.handler(pkt)
	}
	h.net.ReleasePacket(pkt)
}
