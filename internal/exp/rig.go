package exp

import (
	"time"

	"mtp/internal/baseline"
	"mtp/internal/core"
	"mtp/internal/sim"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
)

// rig owns the engine and network of one experiment run. The builders below
// are the shapes more than one experiment uses; a shape only one experiment
// has (Fig 1's two switches, Fig 2's proxy chain, Fig 3's dumbbell) is wired
// where it is used, on a rig's network.
type rig struct {
	eng *sim.Engine
	net *simnet.Network
}

func newRig(seed int64) *rig {
	eng := sim.NewEngine(seed)
	return &rig{eng: eng, net: simnet.NewNetwork(eng)}
}

// probeLink is the uncongested 10 Gbps link the Table 1 probes are built of.
var probeLink = simnet.LinkConfig{Rate: 10e9, Delay: time.Microsecond, QueueCap: 1024}

// attach duplex-links a new host to sw — up is the host's uplink, down the
// switch's link to it — and installs the route.
func (r *rig) attach(sw *simnet.Switch, up, down simnet.LinkConfig) *simnet.Host {
	h := simnet.NewHost(r.net)
	h.SetUplink(r.net.Connect(sw, up, "up"))
	sw.AddRoute(h.ID(), r.net.Connect(h, down, "down"))
	return h
}

// star attaches n hosts to one new switch over lc links.
func (r *rig) star(n int, lc simnet.LinkConfig) ([]*simnet.Host, *simnet.Switch) {
	sw := simnet.NewSwitch(r.net, nil)
	hosts := make([]*simnet.Host, n)
	for i := range hosts {
		hosts[i] = r.attach(sw, lc, lc)
	}
	return hosts, sw
}

// pair builds a → sw → b with a direct, uncongested return link b → a: edge
// configures a's uplink and the return link, down the switch's link to b.
func (r *rig) pair(edge, down simnet.LinkConfig) (a, b *simnet.Host, sw *simnet.Switch) {
	a, b = simnet.NewHost(r.net), simnet.NewHost(r.net)
	sw = simnet.NewSwitch(r.net, nil)
	a.SetUplink(r.net.Connect(sw, edge, "a->sw"))
	sw.AddRoute(b.ID(), r.net.Connect(b, down, "sw->b"))
	b.SetUplink(r.net.Connect(a, edge, "b->a"))
	return a, b, sw
}

// saturate attaches an MTP sender to h that replaces every acknowledged
// message: after fill(n) it keeps n size-byte messages outstanding toward
// port 2 of dst for the rest of the run. fill is separate so the caller can
// finish wiring (receiver, checker, samplers) before the first packet leaves.
func (r *rig) saturate(h *simnet.Host, cfg core.Config, dst simnet.NodeID, size int) (mh *simhost.MTPHost, fill func(n int)) {
	send := func() { mh.EP.SendSynthetic(dst, 2, size, core.SendOptions{}) }
	cfg.OnMessageSent = func(*core.OutMessage) { send() }
	mh = simhost.AttachMTP(r.net, h, cfg)
	return mh, func(n int) {
		for i := 0; i < n; i++ {
			send()
		}
	}
}

// tcpFlow is one established TCP connection carrying a closed stream.
type tcpFlow struct {
	snd  *baseline.Sender
	rcv  *baseline.Receiver
	done bool // every byte and the FIN acknowledged
}

// tcpStream sends size bytes from a to b over one TCP connection (conn 1)
// and installs both hosts' packet handlers.
func (r *rig) tcpStream(a, b *simnet.Host, size int) *tcpFlow {
	f := &tcpFlow{}
	f.snd = baseline.NewSender(r.eng, a, baseline.SenderConfig{
		Conn: 1, Dst: b.ID(), SkipHandshake: true,
		OnComplete: func(time.Duration) { f.done = true },
	})
	f.rcv = baseline.NewReceiver(r.eng, b, baseline.ReceiverConfig{Conn: 1, Src: a.ID()})
	a.SetHandler(f.snd.OnPacket)
	b.SetHandler(f.rcv.OnPacket)
	f.snd.Write(size)
	f.snd.Close()
	return f
}

// quicConn opens one QUIC connection (conn 1) from a to b — cfg supplies what
// a probe varies, the helper fills in the addressing — and installs both
// hosts' packet handlers.
func (r *rig) quicConn(a, b *simnet.Host, cfg baseline.QUICSenderConfig) (*baseline.QUICSender, *baseline.QUICReceiver) {
	cfg.Conn, cfg.Dst = 1, b.ID()
	snd := baseline.NewQUICSender(r.eng, a, cfg)
	rcv := baseline.NewQUICReceiver(r.eng, b, baseline.QUICReceiverConfig{Conn: 1, Src: a.ID()})
	a.SetHandler(snd.OnPacket)
	b.SetHandler(rcv.OnPacket)
	return snd, rcv
}

// proxyRelay builds client ⇄ proxy ⇄ sink with a TCP-terminating proxy in the
// middle: the client's connection (conn 1) ends at the proxy, which relays
// the bytes to the sink over its own (conn 2). clientLC and serverLC
// configure the two hops; the data direction of each marks ECN at 64 packets.
// pc supplies what an experiment varies; the helper fills in the addressing.
func (r *rig) proxyRelay(clientLC, serverLC simnet.LinkConfig, pc baseline.ProxyConfig) (*baseline.Proxy, *baseline.Sender, *baseline.Receiver) {
	client, proxy, sink := simnet.NewHost(r.net), simnet.NewHost(r.net), simnet.NewHost(r.net)
	marking := func(lc simnet.LinkConfig) simnet.LinkConfig {
		lc.ECNThreshold = 64
		return lc
	}
	client.SetUplink(r.net.Connect(proxy, marking(clientLC), "c->p"))
	toClient := r.net.Connect(client, clientLC, "p->c")
	toSink := r.net.Connect(sink, marking(serverLC), "p->s")
	sink.SetUplink(r.net.Connect(proxy, serverLC, "s->p"))

	pc.ClientConn, pc.ServerConn = 1, 2
	pc.ClientSrc, pc.ServerDst = client.ID(), sink.ID()
	p := baseline.NewProxy(r.eng, baseline.Route{Pool: proxy, Emit: func(pkt *simnet.Packet) {
		if pkt.Dst == client.ID() {
			toClient.Enqueue(pkt)
		} else {
			toSink.Enqueue(pkt)
		}
	}}, pc)
	proxy.SetHandler(p.Handle)
	snd := baseline.NewSender(r.eng, client, baseline.SenderConfig{
		Conn: 1, Dst: proxy.ID(), SkipHandshake: true, RTO: pc.RTO,
	})
	client.SetHandler(snd.OnPacket)
	rcv := baseline.NewReceiver(r.eng, sink, baseline.ReceiverConfig{Conn: 2, Src: proxy.ID()})
	sink.SetHandler(rcv.OnPacket)
	return p, snd, rcv
}
