//go:build linux && (amd64 || arm64)

// recvmmsg/sendmmsg batching for real UDP sockets. golang.org/x/net/ipv4
// provides the same thing as ReadBatch/WriteBatch, but this repository is
// dependency-free, so the two syscalls are invoked directly; the build tag
// restricts the file to the linux ABIs where Msghdr.Iovlen/Iovec.Len are
// uint64, and every other platform takes the portable connIO fallback.

package udpnet

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
	_      [4]byte
}

// segCmsg is the one control message a send slot can carry: UDP_SEGMENT with
// the size at which the kernel cuts the slot's bytes back into datagrams.
type segCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte // pads to CMSG_SPACE(2)
}

// groCmsg is the one control message a receive slot can get: UDP_GRO with the
// size of the datagrams the kernel coalesced into the slot's buffer.
type groCmsg struct {
	hdr  syscall.Cmsghdr
	size int32
	_    [4]byte // pads to CMSG_SPACE(4)
}

const (
	// maxSegs is the kernel's UDP_MAX_SEGMENTS: datagrams per segmented send.
	maxSegs = 64
	// maxRunBytes keeps a segmented send under the 65507-byte UDP payload limit.
	maxRunBytes = 65000

	// A socket with UDP_GRO must offer groSlotBytes per receive slot: a NIC or
	// a segmenting sender may coalesce anything up to 64 KB, and a smaller
	// slot clips it. 32 such slots would cost 2 MB per Transport, and measured
	// on the repository's benchmark 8 already took live_heap_MB on small_udp
	// from 0.62 to 1.42, over its bound. Two cost a Node what its 32 slots of
	// 4 KB did. So few slots would shrink the reader's brackets to two single
	// datagrams, which is why a bracket spans reads (Transport.readLoop).
	groSlots     = 2
	groSlotBytes = 1 << 16
)

// mmsgIO batches datagrams through recvmmsg/sendmmsg on one UDP socket: one
// syscall moves many kernel messages, integrated with the runtime netpoller
// through SyscallConn so blocked reads park the goroutine instead of spinning.
// Where the socket has UDP_SEGMENT, one kernel message carries a whole run of
// datagrams (runLen): the slot's iovecs point at the run's pooled buffers as
// they are, and the kernel cuts the bytes back into datagrams that each begin
// with their own MTP header.
type mmsgIO struct {
	rc syscall.RawConn
	v6 bool // socket family: v6 sockets need v4-mapped destination sockaddrs
	// gso: runs go out segmented. Probed at set-up, and cleared for good by
	// the first segmented send the kernel refuses. Write lock holder only.
	gso bool
	// gro: the socket has UDP_GRO, so a receive slot may come back holding a
	// run of datagrams. Set once at set-up.
	gro bool

	rhdrs, whdrs []mmsghdr
	riovs, wiovs []syscall.Iovec
	// rnames/wnames hold peer sockaddrs; RawSockaddrInet6 (28 bytes) is
	// large enough for both families.
	rnames, wnames []syscall.RawSockaddrInet6
	// wctl and wruns go with whdrs slot for slot: the slot's control message
	// (used by runs longer than one) and how many datagrams it carries.
	wctl  []segCmsg
	wruns []int
	rctl  []groCmsg // with gro, one per receive slot

	// recvFn/sendFn are the RawConn callbacks, built once: a closure made per
	// call would capture its results by reference and allocate on every
	// syscall. Arguments and results travel in the fields below instead, one
	// set per direction (the reader goroutine reads while whichever goroutine
	// holds the transport's write lock writes).
	recvFn, sendFn func(fd uintptr) bool
	rwait          bool          // park until the socket is readable
	wwant          int           // slots offered to sendmmsg
	rgot, wgot     int           // slots the kernel moved
	rerr, werr     syscall.Errno // the syscall's own error

	// rfor is the buffer set the receive slots are armed for and rdirty how
	// many leading slots the last recvmmsg disturbed: only those are re-armed.
	rfor   *dgram
	rdirty int
}

// newMmsgIO returns the batched implementation for uc, or nil if the raw
// descriptor is unavailable.
func newMmsgIO(uc *net.UDPConn) batchIO {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil
	}
	la, _ := uc.LocalAddr().(*net.UDPAddr)
	v6 := la != nil && la.IP.To4() == nil
	m := &mmsgIO{rc: rc, v6: v6}
	m.recvFn, m.sendFn = m.recv, m.send
	if err := rc.Control(func(fd uintptr) {
		_, err := syscall.GetsockoptInt(int(fd), solUDP, udpSegment)
		m.gso = err == nil
		m.gro = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	}); err != nil {
		return nil
	}
	return m
}

// recv is the RawConn.Read callback: one recvmmsg over the armed slots.
func (m *mmsgIO) recv(fd uintptr) bool {
	r1, _, e := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&m.rhdrs[0])), uintptr(len(m.rhdrs)),
		syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN && m.rwait {
		return false // park on the poller until readable
	}
	m.rerr, m.rgot = e, int(r1)
	return true
}

// send is the RawConn.Write callback: one sendmmsg over whdrs[:wwant].
func (m *mmsgIO) send(fd uintptr) bool {
	r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&m.whdrs[0])), uintptr(m.wwant),
		syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN {
		return false // park until writable
	}
	m.werr, m.wgot = e, int(r1)
	return true
}

// armRecv points receive slot i at d's buffer and resets what the kernel
// overwrites on delivery (the sockaddr and its length, the control length, the
// flags, the message length).
func (m *mmsgIO) armRecv(i int, d *dgram) {
	m.rnames[i] = syscall.RawSockaddrInet6{}
	m.riovs[i] = syscall.Iovec{Base: &d.buf[0], Len: uint64(len(d.buf))}
	m.rhdrs[i] = mmsghdr{hdr: syscall.Msghdr{
		Name:    (*byte)(unsafe.Pointer(&m.rnames[i])),
		Namelen: uint32(unsafe.Sizeof(m.rnames[i])),
		Iov:     &m.riovs[i],
		Iovlen:  1,
	}}
	if m.gro {
		m.rhdrs[i].hdr.Control = (*byte)(unsafe.Pointer(&m.rctl[i]))
		m.rhdrs[i].hdr.Controllen = uint64(unsafe.Sizeof(m.rctl[i]))
	}
}

// recvBufs: with UDP_GRO a few buffers that each hold whatever the kernel may
// coalesce, without it a syscall's worth of single datagrams.
func (m *mmsgIO) recvBufs(maxDatagram int) (slots, size int) {
	if m.gro {
		return groSlots, groSlotBytes
	}
	return maxBatch, maxDatagram
}

// readBatch fills ms from one recvmmsg call, blocking via the netpoller
// until at least one datagram is ready.
func (m *mmsgIO) readBatch(ms []*dgram) (int, error) { return m.read(ms, true) }

// readQueued is readBatch for what the socket already holds. An error waits
// for the next readBatch to find it again.
func (m *mmsgIO) readQueued(ms []*dgram) int {
	n, _ := m.read(ms, false)
	return n
}

// read is one recvmmsg over ms. The reader passes the same buffer set every
// time, so all slots are armed once and afterwards only the prefix the
// previous call consumed (an ACK socket typically gets 1-4 of 32).
func (m *mmsgIO) read(ms []*dgram, wait bool) (int, error) {
	if m.rfor != ms[0] || len(m.rhdrs) != len(ms) {
		m.rhdrs = make([]mmsghdr, len(ms))
		m.riovs = make([]syscall.Iovec, len(ms))
		m.rnames = make([]syscall.RawSockaddrInet6, len(ms))
		m.rctl = make([]groCmsg, len(ms))
		m.rfor, m.rdirty = ms[0], len(ms)
	}
	for i := 0; i < m.rdirty; i++ {
		m.armRecv(i, ms[i])
	}
	m.rdirty = 1 // a failed call may still have touched the first slot
	m.rwait = wait
	if err := m.rc.Read(m.recvFn); err != nil {
		return 0, err // socket closed
	}
	switch m.rerr {
	case 0:
	case syscall.EAGAIN, syscall.EINTR, syscall.ECONNREFUSED:
		return 0, nil // nothing queued, or transient; the caller loops
	default:
		return 0, m.rerr
	}
	n := m.rgot
	for i := 0; i < n; i++ {
		h, d := &m.rhdrs[i].hdr, ms[i]
		d.n = int(m.rhdrs[i].msgLen)
		d.addr = saToAddrPort(&m.rnames[i])
		d.trunc = h.Flags&syscall.MSG_TRUNC != 0
		d.seg = 0
		if c := &m.rctl[i]; h.Controllen >= uint64(syscall.CmsgLen(4)) && c.hdr.Level == solUDP && c.hdr.Type == udpGRO {
			d.seg = int(c.size)
		}
	}
	if n > 0 {
		m.rdirty = n
	}
	return n, nil
}

// runLen reports how many leading datagrams of ms can leave as one segmented
// send: one destination, one size, except that a shorter datagram may come
// last (the kernel cuts at the first one's size and lets only the tail be
// short), within the kernel's segment count and the UDP length limit.
func runLen(ms []*dgram) int {
	first, total := ms[0], ms[0].n
	n := 1
	for n < len(ms) && n < maxSegs {
		d := ms[n]
		if d.addr != first.addr || d.n > first.n || total+d.n > maxRunBytes {
			break
		}
		n++
		total += d.n
		if d.n < first.n {
			break
		}
	}
	return n
}

// armSend fills send slots for all of ms, one per run when the socket
// segments and one per datagram when it does not, and returns how many.
func (m *mmsgIO) armSend(ms []*dgram) int {
	slots := 0
	for i := 0; i < len(ms); slots++ {
		run := 1
		if m.gso {
			run = runLen(ms[i:])
		}
		for k, d := range ms[i : i+run] {
			m.wiovs[i+k] = syscall.Iovec{Base: &d.buf[0], Len: uint64(d.n)}
		}
		h := &m.whdrs[slots]
		*h = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&m.wnames[slots])),
			Namelen: m.putSockaddr(&m.wnames[slots], ms[i].addr),
			Iov:     &m.wiovs[i],
			Iovlen:  uint64(run),
		}}
		if run > 1 {
			c := &m.wctl[slots]
			*c = segCmsg{
				hdr:  syscall.Cmsghdr{Len: uint64(syscall.CmsgLen(2)), Level: solUDP, Type: udpSegment},
				size: uint16(ms[i].n),
			}
			h.hdr.Control = (*byte)(unsafe.Pointer(c))
			h.hdr.Controllen = uint64(unsafe.Sizeof(*c))
		}
		m.wruns[slots] = run
		i += run
	}
	return slots
}

// writeBatch transmits ms in as few sendmmsg calls as the kernel allows and
// returns how many datagrams it took, in how many kernel messages. A refused
// datagram is dropped (UDP semantics; the protocol's reliability recovers). A
// refused run — no checksum offload on the route (EIO), a segment over the
// path MTU (EINVAL, EMSGSIZE) — turns segmentation off for this socket and
// goes out again as single datagrams through the same loop.
func (m *mmsgIO) writeBatch(ms []*dgram) (sent, kmsgs int, err error) {
	if len(m.whdrs) < len(ms) {
		m.whdrs = make([]mmsghdr, len(ms))
		m.wiovs = make([]syscall.Iovec, len(ms))
		m.wnames = make([]syscall.RawSockaddrInet6, len(ms))
		m.wctl = make([]segCmsg, len(ms))
		m.wruns = make([]int, len(ms))
	}
	// The caller returns ms to the pool, which must be the only thing left
	// holding the buffers.
	defer clear(m.wiovs[:len(ms)])
	for next := 0; next < len(ms); {
		m.wwant = m.armSend(ms[next:])
		if err := m.rc.Write(m.sendFn); err != nil {
			return sent, kmsgs, err // socket closed
		}
		switch {
		case m.werr == syscall.EINTR:
			// the same span again
		case m.werr == 0 && m.wgot > 0:
			for _, run := range m.wruns[:m.wgot] {
				next += run
				sent += run
			}
			kmsgs += m.wgot
		case m.wruns[0] > 1 && (m.werr == syscall.EIO || m.werr == syscall.EINVAL || m.werr == syscall.EMSGSIZE):
			m.gso = false
		default:
			next += m.wruns[0]
		}
	}
	return sent, kmsgs, nil
}

// putSockaddr encodes ap into sa and returns the sockaddr length for the
// socket's family. v6 sockets take v4 destinations in 4-in-6 mapped form.
func (m *mmsgIO) putSockaddr(sa *syscall.RawSockaddrInet6, ap netip.AddrPort) uint32 {
	a := ap.Addr()
	if !m.v6 && a.Is4() {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
		putPort((*[2]byte)(unsafe.Pointer(&sa4.Port)), ap.Port())
		return uint32(unsafe.Sizeof(*sa4))
	}
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: a.As16()}
	putPort((*[2]byte)(unsafe.Pointer(&sa.Port)), ap.Port())
	return uint32(unsafe.Sizeof(*sa))
}

// putPort stores a port in network byte order independent of host
// endianness.
func putPort(b *[2]byte, port uint16) {
	b[0], b[1] = byte(port>>8), byte(port)
}

// saToAddrPort decodes a kernel-written sockaddr into a normalized (4-in-6
// unmapped) AddrPort.
func saToAddrPort(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}
