package baseline

import (
	"time"

	"mtp/internal/sim"
	"mtp/internal/simnet"
)

// ProxyConfig parameterizes a TCP-termination proxy (the Figure 2 device):
// it terminates the client's connection and relays the byte stream over a
// second connection to the server.
type ProxyConfig struct {
	// ClientConn / ServerConn are the two connection IDs.
	ClientConn, ServerConn uint64
	// ClientSrc is the client's node (ACK destination).
	ClientSrc simnet.NodeID
	// ServerDst is the server's node.
	ServerDst simnet.NodeID
	// ReceiveWindow bounds the window advertised to the client. Zero means
	// unlimited — the regime where the proxy buffer grows without bound.
	ReceiveWindow int64
	// SendBuffer bounds bytes queued on the server-side connection before
	// the proxy stops consuming from the client. Default 256 KiB.
	SendBuffer int64
	// RTO configures the server-side sender, which runs DCTCP.
	RTO time.Duration
	// Transform maps consumed client bytes to produced server bytes,
	// modelling an application-level mutation (compression, re-encoding).
	// Nil means identity. Termination makes mutation trivial — that is
	// Table 1's point — at the cost of the buffering this proxy exhibits.
	Transform func(n int64) int64
}

// Proxy terminates one connection and relays it over another, with finite
// internal buffers. Its Occupancy is the paper's Figure 2 y-axis.
type Proxy struct {
	Client *Receiver
	Server *Sender

	sendBuf   int64
	backlog   int64 // bytes written to server sender but not yet acked
	transform func(n int64) int64
}

// NewProxy wires a proxy onto a host: install its Handle as the host
// handler (or add both halves to a Demux). Both halves send through port.
func NewProxy(eng *sim.Engine, port Port, cfg ProxyConfig) *Proxy {
	if cfg.SendBuffer <= 0 {
		cfg.SendBuffer = 256 << 10
	}
	p := &Proxy{sendBuf: cfg.SendBuffer, transform: cfg.Transform}
	p.Server = NewSender(eng, port, SenderConfig{
		Conn:          cfg.ServerConn,
		Dst:           cfg.ServerDst,
		RTO:           cfg.RTO,
		SkipHandshake: true,
		OnAcked: func(now time.Duration, n int64) {
			p.backlog -= n
			p.pump()
		},
	})
	p.Client = NewReceiver(eng, port, ReceiverConfig{
		Conn:        cfg.ClientConn,
		Src:         cfg.ClientSrc,
		WindowLimit: cfg.ReceiveWindow,
		OnDeliver: func(now time.Duration, n int) {
			p.pump()
		},
	})
	return p
}

// pump moves bytes from the client-side receive buffer into the server-side
// connection while the send buffer has room.
func (p *Proxy) pump() {
	for {
		avail := p.Client.Buffered()
		room := p.sendBuf - p.backlog
		if avail <= 0 || room <= 0 {
			return
		}
		n := avail
		if n > room {
			n = room
		}
		p.Client.Consume(n)
		out := n
		if p.transform != nil {
			out = p.transform(n)
		}
		if out > 0 {
			p.backlog += out
			p.Server.Write(int(out))
		}
	}
}

// Occupancy returns the total bytes buffered inside the proxy: received from
// the client but not yet acknowledged by the server.
func (p *Proxy) Occupancy() int64 {
	return p.Client.Buffered() + p.backlog
}

// Handle dispatches a packet to whichever half of the proxy it belongs to.
func (p *Proxy) Handle(pkt *simnet.Packet) {
	seg, ok := pkt.Payload.(*Segment)
	if !ok {
		return
	}
	switch seg.Conn {
	case p.Client.cfg.Conn:
		p.Client.OnPacket(pkt)
	case p.Server.cfg.Conn:
		p.Server.OnPacket(pkt)
	}
}
