package offload

import (
	"mtp/internal/simnet"
	"mtp/internal/wire"
)

// L7LB is an application-level load balancer installed on a switch: requests
// addressed to a virtual service address are steered to one of several
// replicas, whole messages at a time (never splitting a message across
// replicas — MTP's atomicity rule). Replica choice is least-outstanding
// requests with round-robin tie-break.
//
// Because each request is an independent MTP message, the balancer needs no
// connection termination, no byte-stream reassembly, and no per-connection
// buffers (contrast with Figure 2's proxy).
type L7LB struct {
	sw       *simnet.Switch
	vip      simnet.NodeID
	replicas []simnet.NodeID

	outstanding map[simnet.NodeID]int
	sticky      map[stickyKey]simnet.NodeID
	rr          int

	// Steered counts requests per replica (index-aligned with replicas).
	Steered map[simnet.NodeID]uint64
	// Resets counts crashes (reset).
	Resets uint64
}

type stickyKey struct {
	src   simnet.NodeID
	port  uint16
	msgID uint64
}

// NewL7LB installs a balancer on sw that steers messages addressed to vip
// across replicas.
func NewL7LB(sw *simnet.Switch, vip simnet.NodeID, replicas []simnet.NodeID) *L7LB {
	if len(replicas) == 0 {
		panic("offload: L7LB needs replicas")
	}
	lb := &L7LB{
		sw:          sw,
		vip:         vip,
		replicas:    replicas,
		outstanding: make(map[simnet.NodeID]int),
		sticky:      make(map[stickyKey]simnet.NodeID),
		Steered:     make(map[simnet.NodeID]uint64),
	}
	sw.Interposer = lb.interpose
	sw.InterposerReset = lb.reset
	return lb
}

// reset models a balancer crash: stickiness and outstanding counts are SRAM
// state and do not survive. Requests steered before the crash may be
// double-answered or lost; recovery is the clients' delegated retransmission
// machinery, not the device's.
func (lb *L7LB) reset() {
	lb.outstanding = make(map[simnet.NodeID]int)
	lb.sticky = make(map[stickyKey]simnet.NodeID)
	lb.Resets++
}

// NoteDone informs the balancer that a replica finished a request (apps call
// this when responses flow back through the switch; the interposer does it
// automatically for KVS responses).
func (lb *L7LB) NoteDone(replica simnet.NodeID) {
	if lb.outstanding[replica] > 0 {
		lb.outstanding[replica]--
	}
}

func (lb *L7LB) interpose(pkt *simnet.Packet, _ *simnet.Link) bool {
	hdr := pkt.Hdr
	if hdr == nil {
		return true
	}
	// Responses from replicas: decrement outstanding.
	if hdr.Type == wire.TypeData && pkt.Data != nil && IsResponse(pkt.Data) {
		lb.NoteDone(pkt.Src)
		return true
	}
	if pkt.Dst != lb.vip {
		return true
	}
	switch hdr.Type {
	case wire.TypeData:
		key := stickyKey{src: pkt.Src, port: hdr.SrcPort, msgID: hdr.MsgID}
		replica, ok := lb.sticky[key]
		if !ok {
			replica = lb.pick()
			lb.outstanding[replica]++
			lb.Steered[replica]++
			if hdr.MsgPkts > 1 {
				lb.sticky[key] = replica
			}
		}
		if hdr.MsgPkts > 1 && hdr.PktNum+1 >= hdr.MsgPkts {
			delete(lb.sticky, key)
		}
		pkt.Dst = replica
	case wire.TypeAck, wire.TypeNack:
		// Client ACKs toward the VIP follow the same stickiness; without a
		// sticky entry (single-packet request already steered) broadcast is
		// unnecessary — ACK the replica with least outstanding misses
		// nothing because replicas ignore unknown message IDs. Steer to all
		// replicas would duplicate; steer round-robin is wrong; instead we
		// rely on replicas answering from their own address so ACKs flow
		// directly and never reach the VIP. Drop stray VIP acks.
		lb.sw.Network().ReleasePacket(pkt)
		return false
	}
	return true
}

// pick returns the replica with the fewest outstanding requests, ties going
// round-robin.
func (lb *L7LB) pick() simnet.NodeID {
	best := lb.replicas[lb.rr%len(lb.replicas)]
	lb.rr++
	for _, r := range lb.replicas {
		if lb.outstanding[r] < lb.outstanding[best] {
			best = r
		}
	}
	return best
}
