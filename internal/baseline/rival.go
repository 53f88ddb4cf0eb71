package baseline

import (
	"time"

	"mtp/internal/cc"
	"mtp/internal/sim"
	"mtp/internal/simnet"
)

// Rival is one entry of the registry of baseline transports the experiments
// can run against MTP by name.
type Rival struct {
	// Name is the value mtpexp's baseline cell and scenario.Spec.Rival carry.
	Name string
	// Label is the transport's row in the scale table (it names the
	// forwarding it runs over); Short labels its series and columns elsewhere.
	Label, Short string
	// Multipath transports stripe one message over subflows with distinct
	// flow IDs, so the network must hash flows (ECMP) for them to find a
	// second path.
	Multipath bool
	// Multiplexed transports carry every message between two hosts as a
	// stream of one connection: sustained load is a closed loop of streams,
	// where the others write one unbounded message.
	Multiplexed bool

	kind     rivalKind
	coupling Coupling // kindMPTCP only
}

type rivalKind int

const (
	kindDCTCP rivalKind = iota // one connection per message
	kindMPTCP                  // two coupled subflows per message
	kindQUIC                   // one connection per host pair, one stream per message
)

// rivals is the registry. Order matters: the first entry is the default, and
// scenario.Generate draws an index into it, so appending keeps recorded
// scenario seeds valid while reordering does not.
var rivals = []Rival{
	{Name: "dctcp", Label: "DCTCP/ECMP", Short: "DCTCP", kind: kindDCTCP},
	{Name: "mptcp-lia", Label: "MPTCP-LIA", Short: "MPTCP-LIA", Multipath: true, kind: kindMPTCP, coupling: CouplingLIA},
	{Name: "mptcp-olia", Label: "MPTCP-OLIA", Short: "MPTCP-OLIA", Multipath: true, kind: kindMPTCP, coupling: CouplingOLIA},
	{Name: "quic", Label: "QUIC/ECMP", Short: "QUIC", Multiplexed: true, kind: kindQUIC},
}

// RivalNames lists the registered names in registry order.
func RivalNames() []string {
	names := make([]string, len(rivals))
	for i, r := range rivals {
		names[i] = r.Name
	}
	return names
}

// MustRival resolves a registered name; the empty name selects the default
// (DCTCP over ECMP). Names from outside the program are checked against
// RivalNames before they get here, so an unknown one is a programming error
// and panics.
func MustRival(name string) Rival {
	for _, r := range rivals {
		if r.Name == name || name == "" {
			return r
		}
	}
	panic("baseline: unknown rival " + name)
}

// Hosts is what a wiring needs of a fabric; *topo.Fabric implements it. Host
// returns nil for a host that another shard of a partitioned run owns, while
// HostID is valid for every index.
type Hosts interface {
	NumHosts() int
	Host(i int) *simnet.Host
	HostID(i int) simnet.NodeID
}

// WireConfig carries the transport parameters an experiment fixes for every
// message. Zero values take each transport's defaults.
type WireConfig struct {
	RTO      time.Duration
	CC       cc.Kind
	CCConfig cc.Config
	// FailoverRTOs enables MPTCP's dead-path reinjection (see MPTCPConfig).
	FailoverRTOs int
	// OnDelivered, when set, fires each time a receiving side holds every
	// byte of one message.
	OnDelivered func()
}

// Msg names one message: host indices, size, and the identifiers that reach
// the wire. ECMP hashes those, so they are the caller's to choose and keep
// stable: ID must be unique across the fabric and becomes the DCTCP
// connection ID or the MPTCP subflow IDs ID<<1 and ID<<1|1; Stream must be
// unique among the messages of one (Src, Dst) pair and becomes the QUIC
// stream ID on that pair's connection.
type Msg struct {
	Src, Dst int
	Size     int
	ID       uint64
	Stream   uint64
}

// Wiring is one rival installed on the hosts of one fabric (or one shard's
// slice of it). It owns the decisions the rivals differ in — a connection per
// message, two subflows per message, or a connection per host pair with a
// stream per message — and which sender counters make up a message's
// retransmits.
type Wiring struct {
	rival Rival
	eng   *sim.Engine
	hosts Hosts
	cfg   WireConfig
	demux []*Demux // nil for hosts owned elsewhere

	// QUIC keeps one receiver and one sender per connection (host pair).
	quicRcv map[uint64]*QUICReceiver
	quicSnd map[uint64]*quicConn
}

type quicConn struct {
	snd      *QUICSender
	done     map[uint64]func(time.Duration, uint64) // by stream
	reported uint64                                 // PktsRetx already handed to a done callback
}

// Wire installs a packet demultiplexer on every local host and returns the
// wiring that Expect and Start populate.
func (r Rival) Wire(eng *sim.Engine, hosts Hosts, cfg WireConfig) *Wiring {
	w := &Wiring{
		rival: r, eng: eng, hosts: hosts, cfg: cfg,
		demux:   make([]*Demux, hosts.NumHosts()),
		quicRcv: make(map[uint64]*QUICReceiver),
		quicSnd: make(map[uint64]*quicConn),
	}
	for i := range w.demux {
		if h := hosts.Host(i); h != nil {
			w.demux[i] = NewDemux()
			h.SetHandler(w.demux[i].Handle)
		}
	}
	return w
}

func subflowConns(id uint64) [2]uint64 { return [2]uint64{id << 1, id<<1 | 1} }

// pairConn is the QUIC connection ID of a host pair. It doubles as the flow
// ID, so ECMP pins all of a pair's streams to one path — the architectural
// gap the QUIC rows measure.
func pairConn(src, dst int) uint64 { return 1<<62 | uint64(src)<<24 | uint64(dst) }

// Expect creates the receiving side of m on its destination host, which must
// be local. Call it before the run for every message whose destination this
// wiring owns: the sender may live in another shard, so the receiver cannot
// wait for a start that happens elsewhere, and a receiver is passive until
// its first packet arrives. The returned function reads the bytes that
// receiving side has taken in so far (per connection, not per stream, for a
// multiplexed rival).
func (w *Wiring) Expect(m Msg) func() uint64 {
	dst, src := w.hosts.Host(m.Dst), w.hosts.HostID(m.Src)
	delivered := w.cfg.OnDelivered
	switch w.rival.kind {
	case kindMPTCP:
		conns := subflowConns(m.ID)
		rcv := NewMPTCPReceiver(w.eng, dst, src, conns[:])
		if delivered != nil {
			size, done := int64(m.Size), false
			rcv.OnProgress = func(_ time.Duration, contiguous int64) {
				if !done && contiguous >= size {
					done = true
					delivered()
				}
			}
		}
		w.demux[m.Dst].Add(conns[0], rcv.OnPacket)
		w.demux[m.Dst].Add(conns[1], rcv.OnPacket)
		return func() uint64 { return uint64(rcv.Contiguous()) }
	case kindQUIC:
		conn := pairConn(m.Src, m.Dst)
		rcv := w.quicRcv[conn]
		if rcv == nil {
			rc := QUICReceiverConfig{Conn: conn, Src: src}
			if delivered != nil {
				rc.OnStream = func(time.Duration, uint64, int64) { delivered() }
			}
			rcv = NewQUICReceiver(w.eng, dst, rc)
			w.quicRcv[conn] = rcv
			w.demux[m.Dst].Add(conn, rcv.OnPacket)
		}
		return func() uint64 { return uint64(rcv.Arrived) }
	default:
		rc := ReceiverConfig{Conn: m.ID, Src: src}
		if delivered != nil {
			rc.OnFin = func(time.Duration, int64) { delivered() }
		}
		rcv := NewReceiver(w.eng, dst, rc)
		w.demux[m.Dst].Add(m.ID, rcv.OnPacket)
		return func() uint64 { return uint64(rcv.Delivered()) }
	}
}

// Start sends m from its source host, which must be local, in established
// state (connection setup is skipped, as it is for MTP). done fires when every
// byte is acknowledged, with the retransmissions the message cost: its own
// connection's for DCTCP, both subflows' for MPTCP, and for QUIC — where loss
// recovery is per connection — the connection's since its previous completed
// stream.
func (w *Wiring) Start(m Msg, done func(now time.Duration, retx uint64)) {
	src, dst := w.hosts.Host(m.Src), w.hosts.HostID(m.Dst)
	switch w.rival.kind {
	case kindMPTCP:
		conns := subflowConns(m.ID)
		var mp *MPTCP
		mp = NewMPTCP(w.eng, src, MPTCPConfig{
			Conns: conns[:], Dst: dst,
			RTO: w.cfg.RTO, CC: w.cfg.CC, CCConfig: w.cfg.CCConfig,
			Coupling: w.rival.coupling, FailoverRTOs: w.cfg.FailoverRTOs,
			OnComplete: func(now time.Duration) {
				var retx uint64
				for _, s := range mp.Subflows() {
					retx += s.SegsRetx
				}
				done(now, retx)
			},
		})
		for i, s := range mp.Subflows() {
			w.demux[m.Src].Add(conns[i], s.OnPacket)
		}
		mp.Write(m.Size)
	case kindQUIC:
		conn := pairConn(m.Src, m.Dst)
		c := w.quicSnd[conn]
		if c == nil {
			c = &quicConn{done: make(map[uint64]func(time.Duration, uint64))}
			c.snd = NewQUICSender(w.eng, src, QUICSenderConfig{
				Conn: conn, Dst: dst,
				RTO: w.cfg.RTO, CC: w.cfg.CC, CCConfig: w.cfg.CCConfig,
				OnStreamComplete: func(now time.Duration, stream uint64) {
					fn := c.done[stream]
					delete(c.done, stream)
					retx := c.snd.PktsRetx - c.reported
					c.reported = c.snd.PktsRetx
					fn(now, retx)
				},
			})
			w.quicSnd[conn] = c
			w.demux[m.Src].Add(conn, c.snd.OnPacket)
		}
		c.done[m.Stream] = done
		c.snd.OpenStream(m.Stream, int64(m.Size))
	default:
		var snd *Sender
		snd = NewSender(w.eng, src, SenderConfig{
			Conn: m.ID, Dst: dst, SkipHandshake: true,
			RTO: w.cfg.RTO, CC: w.cfg.CC, CCConfig: w.cfg.CCConfig,
			OnComplete: func(now time.Duration) { done(now, snd.SegsRetx) },
		})
		w.demux[m.Src].Add(m.ID, snd.OnPacket)
		snd.Write(m.Size)
		snd.Close()
	}
}

// Unreported counts the retransmissions no done callback has claimed: the ones
// a multiplexed rival's connections made on behalf of streams still in flight,
// which exist because its loss recovery is per connection. A rival with a
// connection per message has nothing to add — an unfinished message's
// retransmissions are never counted.
func (w *Wiring) Unreported() (n uint64) {
	for _, c := range w.quicSnd {
		n += c.snd.PktsRetx - c.reported
	}
	return n
}
