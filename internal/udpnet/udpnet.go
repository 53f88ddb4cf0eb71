// Package udpnet is the real-socket backend for the MTP endpoint: a
// batched, pooled, wall-clock implementation of the I/O half of core.Env
// over UDP.
//
// The simulator drives the endpoint under virtual time; this package drives
// the identical protocol code from real sockets:
//
//   - Batched syscalls. On Linux a reader goroutine pulls datagrams through
//     recvmmsg into a fixed set of receive buffers, and whoever queued
//     datagrams writes them: Flush drains the outbound ring into sendmmsg
//     batches on the calling goroutine, and concurrent flushers combine
//     into one writer. Where the kernel has UDP segmentation offload a run
//     of datagrams to one peer is one kernel message in each direction
//     (UDP_SEGMENT, UDP_GRO); every datagram still carries its own MTP
//     header. Elsewhere (and over non-UDP net.PacketConns such as test
//     interposers) the same loops run one datagram per syscall.
//   - Zero-copy decode. Each received datagram is decoded in place with
//     wire.DecodeInto into a single reused header; the packet callback gets
//     buffer-backed slices and must copy what it keeps — the same ownership
//     contract as core.Inbound, which is what lets receive buffers recycle
//     without ever escaping to the heap.
//   - A lock-free outbound ring. Queue encodes header+payload into a pooled
//     buffer and pushes it onto a bounded MPMC ring, so the protocol engine
//     never performs a syscall while its owner's lock is held; the owner
//     calls Flush once it has let go. A full ring drops the datagram like a
//     full NIC queue; reliability recovers it.
//   - A timer wheel. SetTimer deadlines of every Transport in the process
//     are served by one hashed timing wheel that the package owns (one
//     goroutine per process, not one runtime timer per endpoint), at
//     one-tick resolution and never early. Closing a Transport stops its
//     timer, never the wheel.
//
// The public mtp.Node runs on a Transport whatever its PacketConn (the
// in-memory test network included); internal/platform deploys multi-process
// load tests over it.
package udpnet

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"mtp/internal/wire"
)

// Config parameterizes a Transport.
type Config struct {
	// Conn is the socket. A *net.UDPConn engages the batched syscall path
	// on supported platforms; any other net.PacketConn (lossy interposers,
	// test wrappers) runs one datagram per syscall.
	Conn net.PacketConn

	// MaxDatagram sizes the receive buffers and the initial capacity of
	// pooled send buffers. It must cover header + MSS; a larger datagram from
	// a peer is dropped and counted (Stats.TruncatedDrops). A socket with
	// UDP_GRO sizes its receive buffers itself, at 64 KB, and receives any
	// datagram whole. Default 2048 (fits the default 1200-byte MSS with
	// generous header room).
	MaxDatagram int

	// OnPacket delivers one decoded datagram. hdr and data are valid only
	// during the call (copy what you keep). Called from the reader
	// goroutine.
	OnPacket func(from netip.AddrPort, hdr *wire.Header, data []byte)

	// OnBatchEnd, when non-nil, closes a bracket of OnPacket calls: it runs
	// after at most 32 of them, and before the reader waits for the socket
	// again — the natural point to flush work staged by OnPacket
	// (completed-message callbacks, ACK coalescing). Every read is followed
	// by one, whether or not anything in it was decodable.
	OnBatchEnd func()

	// OnTimer runs when the SetTimer deadline arrives. Called from the
	// process wheel's goroutine.
	OnTimer func()
}

// processWheel is the one timer wheel every Transport of the process shares:
// one wheel goroutine serves all endpoint RTO/pacing timers instead of one
// runtime timer per endpoint per rearm. It is started by the first
// NewTransport and never closed.
var processWheel = sync.OnceValue(func() *Wheel { return NewWheel(0, 0) })

const (
	// ringSize is the outbound ring's capacity in datagrams.
	ringSize = 1024
	// maxBatch caps the datagrams between two OnBatchEnd calls, and the
	// receive buffers of a socket that returns one datagram in each.
	maxBatch = 32
	// maxWriteBatch caps ring entries per write syscall: two segmented sends
	// of the most datagrams the kernel takes in one (64).
	maxWriteBatch = 128
	// socketBuffer sizes the kernel send/receive buffers of a real UDP
	// socket. Batched senders burst far faster than a default ~200KB rmem
	// drains, and UDP silently drops on overflow even over loopback.
	socketBuffer = 4 << 20
)

// Stats counts transport-level events. Snapshot with Transport.Stats.
type Stats struct {
	DatagramsIn, DatagramsOut uint64
	// BatchesIn/Out count syscalls (recvmmsg/sendmmsg or their fallback
	// equivalents); DatagramsIn/BatchesIn is the achieved read batching.
	BatchesIn, BatchesOut uint64
	// KernelMsgsIn/Out count the messages those syscalls carried (mmsghdr
	// entries). With segmentation offload one kernel message is a run of
	// datagrams, and DatagramsOut/KernelMsgsOut is the achieved run length;
	// without it the two counts are equal.
	KernelMsgsIn, KernelMsgsOut uint64
	// MaxBatchIn/Out are the largest single batches observed.
	MaxBatchIn, MaxBatchOut uint64
	// RingFullDrops counts datagrams dropped because the outbound ring was
	// full (backpressure; recovered by retransmission).
	RingFullDrops uint64
	// DecodeErrors counts inbound datagrams that were not MTP packets.
	DecodeErrors uint64
	// TruncatedDrops counts inbound datagrams dropped because part of them
	// was missing: the kernel clipped them to the receive buffer (MSG_TRUNC),
	// or a data packet's payload was not the length its header states.
	TruncatedDrops uint64
	// EncodeErrors counts outbound packets whose header failed to encode.
	EncodeErrors uint64
}

// Transport runs batched socket I/O and timers for one endpoint.
type Transport struct {
	cfg   Config
	io    batchIO
	wheel *Wheel
	timer *Timer

	out  *ring
	pool sync.Pool // *dgram send buffers
	// wmu is held by the one goroutine writing the ring out, and wbatch is
	// its batch. Flush only ever TryLocks it.
	wmu    sync.Mutex
	wbatch []*dgram
	wg     sync.WaitGroup // the reader
	closed atomic.Bool

	// rxHdr is the one header every inbound datagram is decoded into, and
	// rxOpen how many datagrams the reader has seen since the last OnBatchEnd.
	// Reader goroutine only.
	rxHdr  wire.Header
	rxOpen int

	dgramsIn, dgramsOut   atomic.Uint64
	batchesIn, batchesOut atomic.Uint64
	kmsgsIn, kmsgsOut     atomic.Uint64
	maxIn, maxOut         atomic.Uint64
	ringDrops             atomic.Uint64
	decodeErrs, encErrs   atomic.Uint64
	truncated             atomic.Uint64
}

// NewTransport validates cfg and builds a transport. Call Start to spawn the
// reader.
func NewTransport(cfg Config) (*Transport, error) {
	if cfg.Conn == nil {
		return nil, errors.New("udpnet: nil Conn")
	}
	if cfg.OnPacket == nil {
		return nil, errors.New("udpnet: nil OnPacket")
	}
	if cfg.MaxDatagram <= 0 {
		cfg.MaxDatagram = 2048
	}
	if uc, ok := cfg.Conn.(*net.UDPConn); ok {
		// Best effort: the kernel clamps to net.core.{r,w}mem_max.
		_ = uc.SetReadBuffer(socketBuffer)
		_ = uc.SetWriteBuffer(socketBuffer)
	}
	t := &Transport{
		cfg:    cfg,
		io:     newBatchIO(cfg.Conn),
		wheel:  processWheel(),
		out:    newRing(ringSize),
		wbatch: make([]*dgram, 0, maxWriteBatch),
	}
	if cfg.OnTimer != nil {
		t.timer = NewTimer(cfg.OnTimer)
	}
	t.pool.New = func() any {
		return &dgram{buf: make([]byte, 0, cfg.MaxDatagram)}
	}
	return t, nil
}

// Start spawns the reader goroutine, the transport's only one: datagrams are
// written by whoever flushes them.
func (t *Transport) Start() {
	t.wg.Add(1)
	go t.readLoop()
}

// LocalAddrPort returns the socket's bound address as a normalized
// AddrPort (zero when the conn's address is not UDP-shaped).
func (t *Transport) LocalAddrPort() netip.AddrPort {
	return toAddrPort(t.cfg.Conn.LocalAddr())
}

// Now returns the transport's monotonic clock (the wheel's epoch). Feed
// endpoint events with this clock so SetTimer deadlines share a timebase.
func (t *Transport) Now() time.Duration { return t.wheel.Now() }

// SetTimer arms Config.OnTimer to run at absolute wheel time `at`
// (replacing any previous deadline); non-positive cancels. Mirrors
// core.Env.SetTimer semantics.
func (t *Transport) SetTimer(at time.Duration) {
	if t.timer == nil {
		return
	}
	if at <= 0 || t.closed.Load() {
		t.wheel.Stop(t.timer)
		return
	}
	t.wheel.scheduleAt(t.timer, at)
}

// Send queues one datagram and flushes it: Queue followed by Flush, for
// callers that hold no lock of their own.
func (t *Transport) Send(dst netip.AddrPort, hdr *wire.Header, payload []byte) bool {
	ok := t.Queue(dst, hdr, payload)
	t.Flush()
	return ok
}

// Queue encodes hdr+payload into a pooled buffer and pushes it onto the
// outbound ring, where it waits for the next Flush. It never blocks and never
// performs a syscall, so it may be called under a lock that Flush must not
// run under. It reports false when the datagram was dropped (ring full,
// encode error, or transport closed). hdr and payload are not retained past
// the call.
func (t *Transport) Queue(dst netip.AddrPort, hdr *wire.Header, payload []byte) bool {
	if t.closed.Load() {
		return false
	}
	d := t.pool.Get().(*dgram)
	buf, err := hdr.Encode(d.buf[:0])
	if err != nil {
		t.encErrs.Add(1)
		t.pool.Put(d)
		return false
	}
	buf = append(buf, payload...)
	d.buf = buf[:cap(buf)]
	d.n = len(buf)
	d.addr = dst
	if !t.out.push(d) {
		t.ringDrops.Add(1)
		t.pool.Put(d)
		return false
	}
	return true
}

// Flush writes what the ring holds on the calling goroutine. Each pass takes
// the write lock if it is free, writes one batch, lets go and looks at the
// ring again. When another goroutine holds the lock Flush returns at once:
// that goroutine looks at the ring after letting go, so nothing queued
// before a Flush call is left in the ring once every Flush has returned.
// Concurrent flushers thus combine into one writer and one sendmmsg.
func (t *Transport) Flush() {
	for !t.out.empty() {
		if !t.wmu.TryLock() {
			return
		}
		t.drain()
		t.wmu.Unlock()
	}
}

// drain pops up to maxWriteBatch datagrams, writes them in one writeBatch and
// recycles the buffers; on a closed transport it only recycles them. It is
// the one caller of writeBatch and runs with wmu held.
func (t *Transport) drain() {
	batch := t.wbatch[:0]
	for len(batch) < cap(batch) {
		d, ok := t.out.pop()
		if !ok {
			break
		}
		batch = append(batch, d)
	}
	if len(batch) > 0 && !t.closed.Load() {
		// An error means the socket was closed under us: the batch is
		// recycled like any other and Close recycles the rest.
		sent, kmsgs, _ := t.io.writeBatch(batch)
		t.batchesOut.Add(1)
		t.kmsgsOut.Add(uint64(kmsgs))
		t.dgramsOut.Add(uint64(sent))
		maxUpdate(&t.maxOut, uint64(len(batch)))
	}
	for _, d := range batch {
		t.pool.Put(d)
	}
	// The pool may drop a buffer at any GC; a stale pointer here would keep
	// it alive, one per slot up to the largest batch ever drained.
	clear(batch)
}

// Close stops the reader, closes the socket and recycles whatever the ring
// still holds; a later Queue drops. Safe to call twice.
func (t *Transport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	if t.timer != nil {
		t.wheel.Stop(t.timer)
	}
	err := t.cfg.Conn.Close() // unblocks the reader
	t.wg.Wait()
	t.Flush()
	return err
}

// Stats snapshots the transport counters.
func (t *Transport) Stats() Stats {
	return Stats{
		DatagramsIn:    t.dgramsIn.Load(),
		DatagramsOut:   t.dgramsOut.Load(),
		BatchesIn:      t.batchesIn.Load(),
		BatchesOut:     t.batchesOut.Load(),
		KernelMsgsIn:   t.kmsgsIn.Load(),
		KernelMsgsOut:  t.kmsgsOut.Load(),
		MaxBatchIn:     t.maxIn.Load(),
		MaxBatchOut:    t.maxOut.Load(),
		RingFullDrops:  t.ringDrops.Load(),
		DecodeErrors:   t.decodeErrs.Load(),
		TruncatedDrops: t.truncated.Load(),
		EncodeErrors:   t.encErrs.Load(),
	}
}

// maxUpdate raises m to v (single-writer counters; a plain load/store race
// window is acceptable for a high-water mark, but keep it atomic anyway).
func maxUpdate(m *atomic.Uint64, v uint64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// readLoop owns the fixed receive buffer set: a read fills some of the
// buffers, each datagram in them is decoded in place and delivered, and the
// buffers go right back into the next read — a free list with zero
// steady-state allocation.
//
// OnPacket calls come in brackets that OnBatchEnd closes, and a bracket is
// bounded in datagrams, not in reads: it is up to maxBatch datagrams of what
// the socket had queued. A read that came back with every buffer full is
// followed by reads that do not wait, because the socket may hold more (with
// few buffers it usually does); the bracket closes when it reaches maxBatch
// datagrams, wherever in a buffer that falls, and when the socket is empty.
// The reader never waits with a bracket open.
func (t *Transport) readLoop() {
	defer t.wg.Done()
	slots, size := t.io.recvBufs(t.cfg.MaxDatagram)
	bufs := make([]*dgram, slots)
	for i := range bufs {
		bufs[i] = &dgram{buf: make([]byte, size)}
	}
	for {
		n, err := t.io.readBatch(bufs)
		if err != nil {
			return // socket closed
		}
		for n > 0 {
			dgrams := 0
			for _, d := range bufs[:n] {
				dgrams += t.deliver(d)
			}
			t.batchesIn.Add(1)
			t.kmsgsIn.Add(uint64(n))
			t.dgramsIn.Add(uint64(dgrams))
			maxUpdate(&t.maxIn, uint64(dgrams))
			if n < len(bufs) {
				break // the read drained the socket
			}
			n = t.io.readQueued(bufs)
		}
		if t.rxOpen > 0 {
			t.endBracket()
		}
	}
}

// deliver hands the datagrams of one receive buffer to OnPacket — one, or
// with d.seg the run the kernel coalesced, each decoded on its own — and
// returns how many there were. Every datagram counts towards the open
// bracket, decodable or not.
func (t *Transport) deliver(d *dgram) (dgrams int) {
	rest := d.buf[:d.n]
	for {
		pkt := rest
		if d.seg > 0 && d.seg < len(rest) && !d.trunc {
			pkt = rest[:d.seg]
		}
		rest = rest[len(pkt):]
		dgrams++
		t.deliverPacket(d, pkt)
		if t.rxOpen++; t.rxOpen == maxBatch {
			t.endBracket()
		}
		if len(rest) == 0 {
			return dgrams
		}
	}
}

// deliverPacket decodes one datagram of d into the reused header and hands it
// to OnPacket, or drops and counts it.
func (t *Transport) deliverPacket(d *dgram, pkt []byte) {
	if d.trunc {
		// The kernel clipped a datagram larger than the buffer. (What it
		// coalesces always fits a 64 KB buffer, so this is one datagram.)
		t.truncated.Add(1)
		return
	}
	hdr := &t.rxHdr
	consumed, err := wire.DecodeInto(hdr, pkt)
	if err != nil || !d.addr.IsValid() {
		t.decodeErrs.Add(1)
		return
	}
	data := pkt[consumed:]
	// A read that reports no truncation (ReadFrom clips silently) still shows
	// here: reassembly would leave the missing bytes zero.
	if hdr.Type == wire.TypeData && len(data) != int(hdr.PktLen) {
		t.truncated.Add(1)
		return
	}
	if len(data) == 0 {
		data = nil // what core.Inbound reads as "no payload"
	}
	t.cfg.OnPacket(d.addr, hdr, data)
}

// endBracket closes the open bracket.
func (t *Transport) endBracket() {
	t.rxOpen = 0
	if t.cfg.OnBatchEnd != nil {
		t.cfg.OnBatchEnd()
	}
}
