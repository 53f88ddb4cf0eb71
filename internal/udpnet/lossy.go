package udpnet

import (
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"
)

// Lossy wraps a net.PacketConn and injects seed-deterministic drop,
// duplication, and reordering on the send side — a userspace interposer for
// soak-testing the real-socket stack without network namespaces. Wrapping
// the sender means the wire, the kernel, and the receiving transport all see
// genuinely hostile traffic.
//
// Reordering holds a datagram back and releases it after HoldFor (default
// 2ms) from a background goroutine, so a held packet really does arrive
// behind packets sent after it.
//
// WriteTo is WriteToUDPAddrPort on the address's AddrPort, so a seed injects
// the same faults whichever a caller uses. Over a conn without the AddrPort
// API (anything but a *net.UDPConn) the writes box through the adapter connIO
// uses, which wants one writer at a time, as a Transport's write lock gives.
type Lossy struct {
	net.PacketConn
	conn addrPortConn // PacketConn's AddrPort API

	// Drop, Dup, Reorder are per-datagram probabilities in [0,1).
	Drop, Dup, Reorder float64
	// HoldFor is the reorder delay. Zero means 2ms.
	HoldFor time.Duration

	mu     sync.Mutex
	rng    *rand.Rand
	wg     sync.WaitGroup
	closed bool

	drops, dups, reorders int
}

// NewLossy wraps pc with deterministic fault injection seeded by seed.
func NewLossy(pc net.PacketConn, seed int64) *Lossy {
	conn, ok := pc.(addrPortConn)
	if !ok {
		conn = &packetConnIO{pc: pc}
	}
	return &Lossy{PacketConn: pc, conn: conn, rng: rand.New(rand.NewSource(seed))}
}

// WriteTo implements net.PacketConn with fault injection: it is
// WriteToUDPAddrPort to the address's AddrPort.
func (l *Lossy) WriteTo(p []byte, addr net.Addr) (int, error) {
	return l.WriteToUDPAddrPort(p, toAddrPort(addr))
}

// WriteToUDPAddrPort writes p to addr with fault injection. Over a
// *net.UDPConn it allocates only for a held datagram.
func (l *Lossy) WriteToUDPAddrPort(p []byte, addr netip.AddrPort) (int, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, net.ErrClosed
	}
	roll := l.rng.Float64()
	switch {
	case roll < l.Drop:
		l.drops++
		l.mu.Unlock()
		return len(p), nil // swallowed
	case roll < l.Drop+l.Dup:
		l.dups++
		l.mu.Unlock()
		n, err := l.conn.WriteToUDPAddrPort(p, addr)
		if err != nil {
			return n, err
		}
		return l.conn.WriteToUDPAddrPort(p, addr)
	case roll < l.Drop+l.Dup+l.Reorder:
		l.reorders++
		hold := l.HoldFor
		if hold == 0 {
			hold = 2 * time.Millisecond
		}
		cp := append([]byte(nil), p...)
		to := net.UDPAddrFromAddrPort(addr)
		l.wg.Add(1)
		l.mu.Unlock()
		time.AfterFunc(hold, func() {
			defer l.wg.Done()
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if !closed {
				_, _ = l.PacketConn.WriteTo(cp, to)
			}
		})
		return len(p), nil
	}
	l.mu.Unlock()
	return l.conn.WriteToUDPAddrPort(p, addr)
}

// ReadFromUDPAddrPort reads one datagram from the wrapped conn; faults are
// injected on the send side only.
func (l *Lossy) ReadFromUDPAddrPort(p []byte) (int, netip.AddrPort, error) {
	return l.conn.ReadFromUDPAddrPort(p)
}

// Close waits for held (reordered) datagrams before closing the socket so a
// late release never writes to a closed conn.
func (l *Lossy) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.wg.Wait()
	return l.PacketConn.Close()
}
