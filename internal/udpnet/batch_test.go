package udpnet

import (
	"encoding/binary"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mtp/internal/wire"
)

func TestToAddrPort(t *testing.T) {
	if ap := toAddrPort(nil); ap.IsValid() {
		t.Fatalf("nil addr produced %v", ap)
	}
	ua := &net.UDPAddr{IP: net.ParseIP("::ffff:10.0.0.1"), Port: 99}
	if ap := toAddrPort(ua); !ap.Addr().Is4() || ap.Port() != 99 {
		t.Fatalf("4-in-6 UDPAddr not unmapped: %v", ap)
	}
	// Non-UDP addrs go through the string parse path.
	ta := &net.TCPAddr{IP: net.ParseIP("127.0.0.1"), Port: 8}
	if ap := toAddrPort(ta); !ap.IsValid() || ap.Port() != 8 {
		t.Fatalf("parseable addr rejected: %v", ap)
	}
	if ap := toAddrPort(memAddrStub("not-an-addrport")); ap.IsValid() {
		t.Fatalf("garbage addr produced %v", ap)
	}
}

type memAddrStub string

func (m memAddrStub) Network() string { return "mem" }
func (m memAddrStub) String() string  { return string(m) }

func TestWheelDoubleClose(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	w.Close()
	w.Close() // second close is a no-op, not a panic
	// Scheduling on a closed wheel is ignored.
	tm := NewTimer(func() { t.Error("fired on closed wheel") })
	w.Schedule(tm, time.Millisecond)
}

// TestTransportsShareOneWheel: Transports take no wheel of their own; every
// one runs its timer on the process wheel, and closing one stops only its
// own timer, so another Transport's SetTimer keeps firing.
func TestTransportsShareOneWheel(t *testing.T) {
	newTransport := func(fired chan struct{}) *Transport {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTransport(Config{
			Conn:     pc,
			OnPacket: func(netip.AddrPort, *wire.Header, []byte) {},
			OnTimer:  func() { fired <- struct{}{} },
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	firedA, firedB := make(chan struct{}, 1), make(chan struct{}, 1)
	a, b := newTransport(firedA), newTransport(firedB)
	defer b.Close()
	if a.wheel != b.wheel || a.wheel != processWheel() {
		t.Fatal("transports built without a wheel run on different wheels")
	}
	a.SetTimer(a.Now() + 20*time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b.SetTimer(b.Now() + time.Millisecond)
	select {
	case <-firedB:
	case <-time.After(2 * time.Second):
		t.Fatal("closing one transport stopped the other's timer")
	}
	select {
	case <-firedA:
		t.Fatal("a closed transport's timer fired")
	case <-time.After(40 * time.Millisecond):
	}
}

func TestLossyDoubleClose(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLossy(pc, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.WriteTo([]byte{1}, pc.LocalAddr()); err == nil {
		t.Fatal("write after close succeeded")
	}
}

// TestLossyWritePathsInjectAlike: one seed injects the same faults whether a
// caller writes through WriteTo or WriteToUDPAddrPort. Both runs count the
// same drops, duplicates and holds, and the receiver reads the same datagrams:
// those let through in order, the held ones, released by timers that race
// each other and the later writes, as a set. Each write waits for what it let
// through, so the receive buffer never overflows.
func TestLossyWritePathsInjectAlike(t *testing.T) {
	const count = 200
	type result struct {
		drops, dups, reorders int
		passed, held          []uint16
	}
	run := func(write func(l *Lossy, p []byte, to *net.UDPConn)) (r result) {
		rx := listenUDP(t, "udp4", "127.0.0.1:0")
		l := NewLossy(listenUDP(t, "udp4", "127.0.0.1:0"), 7)
		defer l.Close()
		l.Drop, l.Dup, l.Reorder = 0.1, 0.1, 0.1
		arrived := make(chan uint16, 2*count)
		go func() {
			defer close(arrived)
			buf := make([]byte, 8)
			for {
				n, err := rx.Read(buf)
				if err != nil {
					return
				}
				arrived <- binary.BigEndian.Uint16(buf[:n])
			}
		}()
		defer func() {
			rx.Close()
			for range arrived {
			}
		}()
		wasHeld := make([]bool, count)
		await := func(passed, held int) {
			for len(r.passed) < passed || len(r.held) < held {
				select {
				case i := <-arrived:
					if wasHeld[i] {
						r.held = append(r.held, i)
					} else {
						r.passed = append(r.passed, i)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d passed and %d of %d held datagrams arrived", len(r.passed), passed, len(r.held), held)
				}
			}
		}
		for i := 0; i < count; i++ {
			write(l, binary.BigEndian.AppendUint16(nil, uint16(i)), rx)
			holds := r.reorders
			r.drops, r.dups, r.reorders = l.Counts()
			wasHeld[i] = r.reorders > holds
			await(i+1-r.drops+r.dups-r.reorders, 0)
		}
		await(count-r.drops+r.dups-r.reorders, r.reorders)
		slices.Sort(r.held)
		return r
	}
	viaAddr := run(func(l *Lossy, p []byte, to *net.UDPConn) {
		if _, err := l.WriteTo(p, to.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	})
	viaAddrPort := run(func(l *Lossy, p []byte, to *net.UDPConn) {
		if _, err := l.WriteToUDPAddrPort(p, to.LocalAddr().(*net.UDPAddr).AddrPort()); err != nil {
			t.Fatal(err)
		}
	})
	if viaAddr.drops == 0 || viaAddr.dups == 0 || viaAddr.reorders == 0 {
		t.Fatalf("seed injected %d drops, %d duplicates, %d holds: want some of each", viaAddr.drops, viaAddr.dups, viaAddr.reorders)
	}
	if !reflect.DeepEqual(viaAddr, viaAddrPort) {
		t.Fatalf("WriteTo: %+v\nWriteToUDPAddrPort: %+v", viaAddr, viaAddrPort)
	}
}

// listenUDP opens a loopback socket; a host without IPv6 skips the test.
func listenUDP(t *testing.T, network, addr string) *net.UDPConn {
	t.Helper()
	pc, err := net.ListenPacket(network, addr)
	if err != nil && network == "udp6" {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	if err != nil {
		t.Fatalf("listen %s %s: %v", network, addr, err)
	}
	return pc.(*net.UDPConn)
}

// pinCounter counts the send buffers a Transport's pool makes and how many of
// them the collector has freed.
type pinCounter struct{ made, freed atomic.Int32 }

// countPins makes tr's pool count its buffers. The finalizer sits on the
// bytes, which both a stale *dgram and a stale iovec keep reachable.
func countPins(tr *Transport) *pinCounter {
	c := &pinCounter{}
	tr.pool.New = func() any {
		d := &dgram{buf: make([]byte, 0, tr.cfg.MaxDatagram)}
		c.made.Add(1)
		runtime.SetFinalizer(&d.buf[:1][0], func(*byte) { c.freed.Add(1) })
		return d
	}
	return c
}

// collected collects garbage until every buffer made so far has been freed,
// for a few seconds at most, and reports whether it was.
func (c *pinCounter) collected() bool {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC() // the pool lets go after two cycles; finalizers run later still
		if c.freed.Load() == c.made.Load() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// pinConns are the two write paths a pinned buffer could hide in.
var pinConns = []struct {
	name string
	wrap func(net.PacketConn) net.PacketConn
}{
	{"udp", func(pc net.PacketConn) net.PacketConn { return pc }},
	// Wrapped, the Transport takes the connIO path like every test network.
	{"connIO", func(pc net.PacketConn) net.PacketConn { return NewLossy(pc, 1) }},
}

// TestIdleTransportPinsNoSendBuffers: once a burst has gone out, every pooled
// send buffer must be collectable. The batch slice, and the iovecs of the
// mmsg path, used to keep the last buffer of each slot alive, so an idle
// Transport held as many as the largest burst it had ever drained — a heap
// that depended on timing.
func TestIdleTransportPinsNoSendBuffers(t *testing.T) {
	for _, tc := range pinConns {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTransport(Config{
				Conn:     tc.wrap(listenUDP(t, "udp4", "127.0.0.1:0")),
				OnPacket: func(netip.AddrPort, *wire.Header, []byte) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			pins := countPins(tr)
			// Queued first and flushed once, the burst is written as one batch.
			const burst = 8
			hdr := wire.Header{Type: wire.TypeData, SrcPort: 1, DstPort: 2, MsgPkts: 1, MsgBytes: 1, PktLen: 1}
			for i := 0; i < burst; i++ {
				if !tr.Queue(tr.LocalAddrPort(), &hdr, []byte{1}) {
					t.Fatalf("queue %d dropped at the ring", i)
				}
			}
			tr.Flush()
			if st := tr.Stats(); st.DatagramsOut != burst || st.BatchesOut != 1 {
				t.Fatalf("%d datagrams in %d writes, want %d in one", st.DatagramsOut, st.BatchesOut, burst)
			}
			if !pins.collected() {
				t.Fatalf("%d of %d send buffers still reachable from the idle transport",
					pins.made.Load()-pins.freed.Load(), pins.made.Load())
			}
		})
	}
}

// TestClosedTransportPinsNoSendBuffers: Close hands what the ring still holds
// back to the pool rather than leaving it pinned for as long as the Transport
// is referenced, and after Close a Queue, Send or Flush writes nothing and
// pins nothing.
func TestClosedTransportPinsNoSendBuffers(t *testing.T) {
	for _, tc := range pinConns {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTransport(Config{
				Conn:     tc.wrap(listenUDP(t, "udp4", "127.0.0.1:0")),
				OnPacket: func(netip.AddrPort, *wire.Header, []byte) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			pins := countPins(tr)
			tr.Start()
			const burst = 8
			hdr := wire.Header{Type: wire.TypeData, SrcPort: 1, DstPort: 2, MsgPkts: 1, MsgBytes: 1, PktLen: 1}
			dst := tr.LocalAddrPort()
			for i := 0; i < burst; i++ {
				if !tr.Queue(dst, &hdr, []byte{1}) {
					t.Fatalf("queue %d dropped at the ring", i)
				}
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			check := func(after string) {
				t.Helper()
				if !pins.collected() {
					t.Fatalf("after %s, %d of %d send buffers still reachable from the closed transport",
						after, pins.made.Load()-pins.freed.Load(), pins.made.Load())
				}
			}
			check("Close")
			if tr.Queue(dst, &hdr, []byte{1}) || tr.Send(dst, &hdr, []byte{1}) {
				t.Fatal("a closed transport took a datagram")
			}
			tr.Flush()
			if n := tr.Stats().DatagramsOut; n != 0 {
				t.Fatalf("%d datagrams written by a closed transport", n)
			}
			check("Queue, Send and Flush")
			runtime.KeepAlive(tr) // its ring must not go with it, or the checks prove nothing
		})
	}
}

// TestRefusedDatagramNotCounted: a datagram the kernel refuses (port 0 is no
// destination) is dropped without stopping the batch around it, and is not
// reported as sent.
func TestRefusedDatagramNotCounted(t *testing.T) {
	got := make(chan uint64, 4)
	rx, err := NewTransport(Config{Conn: listenUDP(t, "udp4", "127.0.0.1:0"), OnPacket: func(_ netip.AddrPort, hdr *wire.Header, _ []byte) {
		got <- hdr.MsgID
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rx.Start()
	tx, err := NewTransport(Config{Conn: listenUDP(t, "udp4", "127.0.0.1:0"), OnPacket: func(netip.AddrPort, *wire.Header, []byte) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	nowhere := netip.AddrPortFrom(rx.LocalAddrPort().Addr(), 0)
	for i, dst := range []netip.AddrPort{rx.LocalAddrPort(), nowhere, rx.LocalAddrPort()} {
		hdr := wire.Header{Type: wire.TypeData, SrcPort: 1, DstPort: 2, MsgID: uint64(i), MsgPkts: 1, MsgBytes: 1, PktLen: 1}
		if !tx.Queue(dst, &hdr, []byte{1}) {
			t.Fatalf("queue %d dropped at the ring", i)
		}
	}
	tx.Flush() // the three were queued first, so they are one batch
	for _, want := range []uint64{0, 2} {
		select {
		case id := <-got:
			if id != want {
				t.Fatalf("packet %d arrived where %d was due", id, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("packet %d never arrived", want)
		}
	}
	if st := tx.Stats(); st.DatagramsOut != 2 || st.KernelMsgsOut != 2 {
		t.Fatalf("%d datagrams in %d kernel messages reported sent, want the 2 the kernel took", st.DatagramsOut, st.KernelMsgsOut)
	}
}
