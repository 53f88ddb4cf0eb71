package udpnet

import (
	"net"
	"net/netip"
	"runtime"
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

// TestIdleWriterPinsNoSendBuffers: once a burst has gone out, every pooled
// send buffer must be collectable. The writer's batch slice used to keep the
// last buffer of each slot alive, so an idle Transport held as many as the
// largest burst it had ever drained — a heap that depended on timing.
func TestIdleWriterPinsNoSendBuffers(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Wrapped, so the Transport takes the connIO path like every test network.
	tr, err := NewTransport(Config{
		Conn:     NewLossy(pc, 1),
		OnPacket: func(netip.AddrPort, *wire.Header, []byte) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var made, freed atomic.Int32
	tr.pool.New = func() any {
		d := &dgram{buf: make([]byte, 0, tr.cfg.MaxDatagram)}
		made.Add(1)
		runtime.SetFinalizer(d, func(*dgram) { freed.Add(1) })
		return d
	}
	// Queued before the writer starts, the burst is drained as one batch.
	const burst = 8
	hdr := wire.Header{Type: wire.TypeData, SrcPort: 1, DstPort: 2, MsgPkts: 1, MsgBytes: 1, PktLen: 1}
	for i := 0; i < burst; i++ {
		if !tr.Send(tr.LocalAddrPort(), &hdr, []byte{1}) {
			t.Fatalf("send %d dropped at the ring", i)
		}
	}
	tr.Start()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if tr.Stats().DatagramsOut == burst {
			runtime.GC() // the pool lets go after two cycles; finalizers run later still
			if freed.Load() == made.Load() {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("sent %d, %d of %d send buffers still reachable from the idle transport",
				tr.Stats().DatagramsOut, made.Load()-freed.Load(), made.Load())
		}
	}
}
