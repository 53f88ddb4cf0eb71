package udpnet

import (
	"net"
	"net/netip"
)

// dgram is one datagram in flight through the transport: a contiguous
// encoded buffer (header followed by payload) and the peer address. Outbound
// dgrams are pooled — Queue fills one, a Flush transmits it and returns it to
// the pool. Inbound dgrams are the reader's fixed buffer set,
// reused across batches (the packet callback contract is copy-what-you-keep,
// mirroring core.Inbound).
type dgram struct {
	buf  []byte // full capacity backing array
	n    int    // valid bytes
	addr netip.AddrPort
	// seg, when positive, says an inbound buffer holds a run of datagrams the
	// kernel coalesced (UDP_GRO): one every seg bytes, the last one possibly
	// shorter.
	seg int
	// trunc marks an inbound buffer the kernel clipped to len(buf).
	trunc bool
}

// batchIO reads and writes datagram batches on one socket. recvBufs says how
// many receive buffers of what size the reads want, given the largest
// datagram the transport was sized for. readBatch blocks until at least one
// datagram is available, fills ms[i].buf/.n/.addr/.seg/.trunc for the first k
// entries, and returns k; readQueued is the same read without the wait, for
// what the socket already holds, possibly nothing. writeBatch transmits ms and
// returns how many datagrams the socket took and in how many kernel messages.
// A kernel message can carry a run of datagrams in either direction.
// Implementations: mmsgIO (Linux recvmmsg/sendmmsg, many datagrams per
// syscall) and connIO (portable, one datagram per syscall).
type batchIO interface {
	recvBufs(maxDatagram int) (slots, size int)
	readBatch(ms []*dgram) (int, error)
	readQueued(ms []*dgram) int
	writeBatch(ms []*dgram) (sent, kmsgs int, err error)
}

// newBatchIO selects the best batch implementation for pc: the mmsg syscall
// path when pc is a real UDP socket on a supported platform, else the
// portable one-datagram-per-syscall fallback.
func newBatchIO(pc net.PacketConn) batchIO {
	if uc, ok := pc.(*net.UDPConn); ok {
		if io := newMmsgIO(uc); io != nil {
			return io
		}
	}
	if ac, ok := pc.(addrPortConn); ok {
		return &connIO{conn: ac}
	}
	return &connIO{conn: &packetConnIO{pc: pc}}
}

// addrPortConn is the datagram API of *net.UDPConn that takes and returns
// netip.AddrPort: neither direction boxes an address, so neither allocates.
// *Lossy has it too.
type addrPortConn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
}

// connIO is the portable fallback: one datagram per call. It also serves
// non-UDP net.PacketConns (the in-memory test network, lossy interposers),
// which is what keeps the protocol-level tests platform-independent.
type connIO struct{ conn addrPortConn }

// recvBufs: one buffer, which is all readBatch fills.
func (c *connIO) recvBufs(maxDatagram int) (slots, size int) { return 1, maxDatagram }

// readQueued reads nothing: the portable API cannot ask without waiting.
func (c *connIO) readQueued([]*dgram) int { return 0 }

// readBatch reads exactly one datagram (the portable API has no way to read
// more without risking a block with data already in hand).
func (c *connIO) readBatch(ms []*dgram) (int, error) {
	m := ms[0]
	n, from, err := c.conn.ReadFromUDPAddrPort(m.buf)
	if err != nil {
		return 0, err
	}
	m.n = n
	m.addr = netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
	return 1, nil
}

// writeBatch writes every datagram, one syscall each.
func (c *connIO) writeBatch(ms []*dgram) (sent, kmsgs int, err error) {
	for _, m := range ms {
		if _, err := c.conn.WriteToUDPAddrPort(m.buf[:m.n], m.addr); err != nil {
			// Transient per-datagram errors (e.g. ICMP-induced ECONNREFUSED
			// on loopback) drop the datagram; reliability recovers it. A
			// closed socket surfaces on the next read.
			continue
		}
		sent++
	}
	return sent, sent, nil
}

// packetConnIO gives any other net.PacketConn (the in-memory network, test
// wrappers) the AddrPort API through ReadFrom/WriteTo, which box an address
// per datagram.
type packetConnIO struct {
	pc net.PacketConn
	// lastDst/lastAddr remember the previous datagram's destination, so a
	// run to one peer builds its *net.UDPAddr once. Write lock holder only.
	lastDst  netip.AddrPort
	lastAddr *net.UDPAddr
}

func (c *packetConnIO) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	n, from, err := c.pc.ReadFrom(b)
	return n, toAddrPort(from), err
}

func (c *packetConnIO) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	if addr != c.lastDst || c.lastAddr == nil {
		c.lastDst, c.lastAddr = addr, net.UDPAddrFromAddrPort(addr)
	}
	return c.pc.WriteTo(b, c.lastAddr)
}

// toAddrPort converts a net.Addr to a normalized netip.AddrPort. Peer
// identity must be comparable and stable across the resolve and receive
// paths, so 4-in-6 mapped addresses are unmapped everywhere. Any address
// type with an AddrPort method (*net.UDPAddr, the in-memory network's names)
// converts directly; the rest are parsed from their string form.
func toAddrPort(a net.Addr) netip.AddrPort {
	var ap netip.AddrPort
	if v, ok := a.(interface{ AddrPort() netip.AddrPort }); ok {
		ap = v.AddrPort()
	} else if a != nil {
		ap, _ = netip.ParseAddrPort(a.String())
	}
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}
