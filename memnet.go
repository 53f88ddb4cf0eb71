package mtp

import (
	"errors"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"
)

// MemNetwork is an in-memory packet network implementing net.PacketConn
// endpoints, with optional loss and latency injection. It lets the full MTP
// node — wire encoding included — run deterministically in tests and
// examples without sockets.
type MemNetwork struct {
	mu    sync.Mutex
	conns map[string]*memConn
	rng   *rand.Rand
	// bufs recycles delivery buffers: a datagram's bytes live from send to
	// the receiver's ReadFrom copy-out, then return to the pool.
	bufs sync.Pool

	// Loss is the packet drop probability in [0,1).
	Loss float64
	// Latency delays every delivery.
	Latency time.Duration
}

// NewMemNetwork returns an empty in-memory network seeded for deterministic
// loss patterns.
func NewMemNetwork(seed int64) *MemNetwork {
	return &MemNetwork{conns: make(map[string]*memConn), rng: rand.New(rand.NewSource(seed))}
}

// memAddr is the in-memory network's address type: the endpoint's name.
type memAddr string

// Network implements net.Addr.
func (memAddr) Network() string { return "mem" }

// String implements net.Addr.
func (a memAddr) String() string { return string(a) }

// memIP is the one link-local address every in-memory endpoint shares.
var memIP = netip.MustParseAddr("fe80::1")

// AddrPort gives the name the peer-key shape udpnet.Transport carries: the
// zone of memIP. Zones survive netip.AddrPort <-> *net.UDPAddr conversion
// unchanged, so memConn.WriteTo recovers the name from what the transport's
// portable I/O hands it.
func (a memAddr) AddrPort() netip.AddrPort {
	return netip.AddrPortFrom(memIP.WithZone(string(a)), 0)
}

type memPacket struct {
	// from is the sender's address pre-boxed as net.Addr (boxing per packet
	// would allocate on every ReadFrom return).
	from net.Addr
	data []byte
	// buf is the pooled backing array, returned to MemNetwork.bufs once the
	// bytes have been copied out or the packet is dropped.
	buf *[]byte
}

// memConn is one endpoint of a MemNetwork.
type memConn struct {
	net    *MemNetwork
	addr   memAddr
	addrIf net.Addr // addr pre-boxed once
	inbox  chan memPacket
	closed chan struct{}
	once   sync.Once
}

// Listen creates an endpoint with the given name (its address).
func (m *MemNetwork) Listen(name string) (net.PacketConn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.conns[name]; dup {
		return nil, errors.New("mtp: mem address in use: " + name)
	}
	c := &memConn{
		net:    m,
		addr:   memAddr(name),
		addrIf: memAddr(name),
		inbox:  make(chan memPacket, 4096),
		closed: make(chan struct{}),
	}
	m.conns[name] = c
	return c, nil
}

func (m *MemNetwork) send(from net.Addr, to string, data []byte) {
	m.mu.Lock()
	dst := m.conns[to]
	drop := m.Loss > 0 && m.rng.Float64() < m.Loss
	latency := m.Latency
	m.mu.Unlock()
	if dst == nil || drop {
		return
	}
	bp, _ := m.bufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = append((*bp)[:0], data...)
	pkt := memPacket{from: from, data: *bp, buf: bp}
	if latency > 0 {
		time.AfterFunc(latency, func() { dst.deliver(pkt) })
		return
	}
	dst.deliver(pkt)
}

// deliver enqueues a packet, dropping (and recycling) it when the inbox is
// full or the endpoint is gone.
func (c *memConn) deliver(pkt memPacket) {
	select {
	case c.inbox <- pkt:
	case <-c.closed:
		c.net.bufs.Put(pkt.buf)
	default: // inbox full: drop, like a real queue
		c.net.bufs.Put(pkt.buf)
	}
}

// ReadFrom implements net.PacketConn.
func (c *memConn) ReadFrom(p []byte) (int, net.Addr, error) {
	select {
	case pkt := <-c.inbox:
		n := copy(p, pkt.data)
		c.net.bufs.Put(pkt.buf)
		return n, pkt.from, nil
	case <-c.closed:
		return 0, nil, net.ErrClosed
	}
}

// WriteTo implements net.PacketConn.
func (c *memConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	var to string
	if ua, ok := addr.(*net.UDPAddr); ok {
		to = ua.Zone // a memAddr that went through AddrPort
	} else {
		to = addr.String()
	}
	c.net.send(c.addrIf, to, p)
	return len(p), nil
}

// Close implements net.PacketConn.
func (c *memConn) Close() error {
	c.once.Do(func() {
		close(c.closed)
		c.net.mu.Lock()
		delete(c.net.conns, string(c.addr))
		c.net.mu.Unlock()
	})
	return nil
}

// LocalAddr implements net.PacketConn.
func (c *memConn) LocalAddr() net.Addr { return c.addr }

// SetDeadline implements net.PacketConn (unsupported; no-op).
func (c *memConn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline implements net.PacketConn (unsupported; no-op).
func (c *memConn) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline implements net.PacketConn (unsupported; no-op).
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }
