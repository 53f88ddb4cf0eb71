package baseline

import (
	"time"

	"mtp/internal/sim"
	"mtp/internal/simnet"
)

// Datagram is the payload of the UDP-model transport: fire-and-forget, no
// acknowledgements, no congestion control. Used by the Table 1 probes —
// UDP gets mutation and message independence for free, but cannot adapt to
// any congestion signal.
type Datagram struct {
	Flow uint64
	Seq  uint64
	Len  int
}

// UDPSender blasts fixed-size datagrams at a given mean rate. The gaps are
// exponential draws from the engine's seeded source (a Poisson process), not a
// fixed period: strictly periodic sources sharing a drop-tail queue phase-lock
// — one finds the queue full at every arrival while the other always finds the
// slot the link just freed — so their shares would measure the phase they
// started in rather than the load they offer.
type UDPSender struct {
	eng  *sim.Engine
	port Port

	Flow   uint64
	Dst    simnet.NodeID
	Size   int
	Rate   float64 // bits per second of offered load
	Tenant int

	seq     uint64
	stopped bool

	Sent uint64
}

// NewUDPSender builds a datagram source, sending through port, that offers
// rateBps on average.
func NewUDPSender(eng *sim.Engine, port Port, flow uint64, dst simnet.NodeID, size int, rateBps float64) *UDPSender {
	if size <= 0 || rateBps <= 0 {
		panic("baseline: invalid UDP sender parameters")
	}
	return &UDPSender{eng: eng, port: port, Flow: flow, Dst: dst, Size: size, Rate: rateBps}
}

// Start begins transmission.
func (u *UDPSender) Start() {
	u.stopped = false
	u.tick()
}

// Stop halts transmission after the next pending tick.
func (u *UDPSender) Stop() { u.stopped = true }

func (u *UDPSender) tick() {
	if u.stopped {
		return
	}
	u.Sent++
	pkt := u.port.AllocPacket()
	pkt.Dst, pkt.Size = u.Dst, u.Size+headerBytes
	pkt.Payload = &Datagram{Flow: u.Flow, Seq: u.seq, Len: u.Size}
	pkt.Tenant, pkt.FlowID = u.Tenant, u.Flow
	u.port.Send(pkt)
	u.seq++
	mean := float64(u.Size+headerBytes) * 8 / u.Rate * float64(time.Second)
	u.eng.Schedule(time.Duration(mean*u.eng.Rand().ExpFloat64()), u.tick)
}

// UDPReceiver counts arriving datagrams and detects sequence gaps.
type UDPReceiver struct {
	Flow uint64

	Received uint64
	Bytes    uint64
	Gaps     uint64
	nextSeq  uint64
	OnData   func(now time.Duration, d *Datagram)

	eng *sim.Engine
}

// NewUDPReceiver builds a counter for one flow.
func NewUDPReceiver(eng *sim.Engine, flow uint64) *UDPReceiver {
	return &UDPReceiver{Flow: flow, eng: eng}
}

// OnPacket consumes one packet (install via a host handler or Demux-like
// dispatch).
func (u *UDPReceiver) OnPacket(pkt *simnet.Packet) {
	d, ok := pkt.Payload.(*Datagram)
	if !ok || d.Flow != u.Flow {
		return
	}
	u.Received++
	u.Bytes += uint64(d.Len)
	if d.Seq != u.nextSeq {
		u.Gaps++
	}
	u.nextSeq = d.Seq + 1
	if u.OnData != nil {
		u.OnData(u.eng.Now(), d)
	}
}
