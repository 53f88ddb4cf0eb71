package baseline

import "mtp/internal/simnet"

// Port is where a baseline endpoint's packets come from and where they leave:
// the fabric's packet pool and an egress. *simnet.Host is a Port; Route adapts
// a caller that picks the egress itself.
type Port interface {
	AllocPacket() *simnet.Packet
	Send(pkt *simnet.Packet)
}

// Route is a Port for callers that route by hand — a proxy with a link toward
// each side, cross traffic enqueued straight onto a link, a test that looks at
// packets on their way out: packets come from Pool and leave through Emit.
type Route struct {
	Pool interface{ AllocPacket() *simnet.Packet }
	Emit func(pkt *simnet.Packet)
}

// AllocPacket implements Port.
func (r Route) AllocPacket() *simnet.Packet { return r.Pool.AllocPacket() }

// Send implements Port.
func (r Route) Send(pkt *simnet.Packet) { r.Emit(pkt) }
