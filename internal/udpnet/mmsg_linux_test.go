//go:build linux && (amd64 || arm64)

package udpnet

import (
	"bytes"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"

	"mtp/internal/wire"
)

func TestRunLen(t *testing.T) {
	a := netip.MustParseAddrPort("127.0.0.1:7")
	b := netip.MustParseAddrPort("127.0.0.1:8")
	// seq builds datagrams of the given sizes to a; a negative size goes to b.
	seq := func(sizes ...int) []*dgram {
		ms := make([]*dgram, len(sizes))
		for i, n := range sizes {
			ms[i] = &dgram{n: n, addr: a}
			if n < 0 {
				ms[i] = &dgram{n: -n, addr: b}
			}
		}
		return ms
	}
	rep := func(size, count int) []int {
		out := make([]int, count)
		for i := range out {
			out[i] = size
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		sizes []int
		runs  []int // the run lengths that consume sizes, in order
	}{
		{"one datagram", []int{1200}, []int{1}},
		{"equal sizes", rep(1200, 10), []int{10}},
		{"a short tail ends the run", []int{1200, 1200, 1200, 300}, []int{4}},
		{"a short datagram mid-run splits it", []int{1200, 1200, 300, 1200, 1200}, []int{3, 2}},
		{"a longer datagram starts its own run", []int{300, 1200, 1200}, []int{1, 2}},
		{"an address change splits", []int{1200, 1200, -1200, -1200, 1200}, []int{2, 2, 1}},
		{"more than 64 segments split", rep(100, 150), []int{64, 64, 22}},
		{"more than 65000 bytes split", rep(1261, 55), []int{51, 4}},
		{"the tail must fit the byte limit too", append(rep(13000, 4), 13001), []int{4, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms := seq(tc.sizes...)
			for i, want := range tc.runs {
				got := runLen(ms)
				if got != want {
					t.Fatalf("run %d: %d datagrams, want %d", i, got, want)
				}
				ms = ms[got:]
			}
			if len(ms) != 0 {
				t.Fatalf("%d datagrams left over", len(ms))
			}
		})
	}
}

// TestArmSendControl: a run of one is the plain message it always was (one
// iovec, no control buffer); a longer run carries one UDP_SEGMENT of the
// first datagram's size over iovecs that point at the buffers themselves.
func TestArmSendControl(t *testing.T) {
	dst := netip.MustParseAddrPort("127.0.0.1:7")
	mk := func(n int) *dgram { return &dgram{buf: make([]byte, 2048), n: n, addr: dst} }
	ms := []*dgram{mk(100), mk(1200), mk(1200), mk(500)}
	m := &mmsgIO{gso: true}
	m.whdrs, m.wiovs = make([]mmsghdr, 4), make([]syscall.Iovec, 4)
	m.wnames, m.wctl, m.wruns = make([]syscall.RawSockaddrInet6, 4), make([]segCmsg, 4), make([]int, 4)
	if slots := m.armSend(ms); slots != 2 || m.wruns[0] != 1 || m.wruns[1] != 3 {
		t.Fatalf("%d slots carrying %v, want 2 carrying [1 3]", slots, m.wruns[:2])
	}
	if h := m.whdrs[0].hdr; h.Control != nil || h.Controllen != 0 || h.Iovlen != 1 {
		t.Errorf("run of one: control %v/%d, %d iovecs; want none and 1", h.Control, h.Controllen, h.Iovlen)
	}
	h := m.whdrs[1].hdr
	if h.Control == nil || h.Controllen != uint64(syscall.CmsgSpace(2)) || h.Iovlen != 3 || h.Iov != &m.wiovs[1] {
		t.Fatalf("run of three: control %v/%d, %d iovecs", h.Control, h.Controllen, h.Iovlen)
	}
	c := m.wctl[1]
	if c.hdr.Level != solUDP || c.hdr.Type != udpSegment || c.hdr.Len != uint64(syscall.CmsgLen(2)) || c.size != 1200 {
		t.Errorf("control message %+v, want UDP_SEGMENT 1200", c)
	}
	for i, d := range ms {
		if m.wiovs[i].Base != &d.buf[0] || m.wiovs[i].Len != uint64(d.n) {
			t.Errorf("iovec %d does not point at its buffer", i)
		}
	}
	m.gso = false
	if slots := m.armSend(ms); slots != 4 || m.whdrs[1].hdr.Control != nil {
		t.Fatalf("without segmentation: %d slots, control %v; want 4 and none", slots, m.whdrs[1].hdr.Control)
	}
}

// mixedSizes is a 200-packet sequence that exercises every way a run ends:
// long equal stretches (over the segment and byte limits), short tails, short
// datagrams in the middle, and sizes that grow.
func mixedSizes() []int {
	var sizes []int
	for len(sizes) < 200 {
		switch i := len(sizes); {
		case i < 80:
			sizes = append(sizes, 1200)
		case i < 90:
			sizes = append(sizes, 64+i%3)
		case i%17 == 0:
			sizes = append(sizes, 300)
		case i%29 == 0:
			sizes = append(sizes, 1400)
		default:
			sizes = append(sizes, 900)
		}
	}
	return sizes
}

func mixedPacket(i, size int) (wire.Header, []byte) {
	payload := make([]byte, size)
	for j := range payload {
		payload[j] = byte(i*7 + j)
	}
	return wire.Header{
		Type: wire.TypeData, SrcPort: 9, DstPort: 7, MsgID: uint64(i),
		MsgPkts: 1, MsgBytes: uint32(size), PktLen: uint16(size),
	}, payload
}

// sendMixed queues the mixed sequence on a fresh Transport and writes it with
// one Flush, so the ring is drained in full batches, and returns the
// Transport.
func sendMixed(t *testing.T, network, addr string, dst netip.AddrPort) *Transport {
	t.Helper()
	tx, err := NewTransport(Config{Conn: listenUDP(t, network, addr), OnPacket: func(netip.AddrPort, *wire.Header, []byte) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Close() })
	for i, size := range mixedSizes() {
		hdr, payload := mixedPacket(i, size)
		if !tx.Queue(dst, &hdr, payload) {
			t.Fatalf("queue %d dropped at the ring", i)
		}
	}
	tx.Flush()
	return tx
}

// checkSegmented fails unless tx moved the sequence in far fewer kernel
// messages than datagrams; where the socket has no UDP_SEGMENT there is
// nothing to check.
func checkSegmented(t *testing.T, tx *Transport) {
	t.Helper()
	want := uint64(len(mixedSizes()))
	st := tx.Stats()
	if !tx.io.(*mmsgIO).gso {
		t.Logf("no UDP_SEGMENT on this socket: %d datagrams in %d kernel messages", st.DatagramsOut, st.KernelMsgsOut)
		return
	}
	if st.DatagramsOut != want || st.KernelMsgsOut*4 > st.DatagramsOut {
		t.Errorf("%d datagrams in %d kernel messages, want %d in at most a quarter as many", st.DatagramsOut, st.KernelMsgsOut, want)
	}
}

// TestSegmentedSendEquivalence: what a receiver sees does not depend on how
// the sender grouped its datagrams. The same sequence, sent segmented, must
// arrive byte-identical and in order at another Transport, at a plain socket
// that knows nothing of any of this (the kernel cuts the runs apart again),
// and over IPv6.
func TestSegmentedSendEquivalence(t *testing.T) {
	sizes := mixedSizes()
	for _, tc := range []struct{ name, network, addr string }{
		{"transport", "udp4", "127.0.0.1:0"},
		{"transport-ipv6", "udp6", "[::1]:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next := 0
			done := make(chan struct{})
			rx, err := NewTransport(Config{
				Conn: listenUDP(t, tc.network, tc.addr),
				OnPacket: func(from netip.AddrPort, hdr *wire.Header, data []byte) {
					if next >= len(sizes) {
						t.Errorf("more than %d packets", len(sizes))
						return
					}
					_, want := mixedPacket(next, sizes[next])
					if hdr.MsgID != uint64(next) || !bytes.Equal(data, want) {
						t.Errorf("packet %d: got message %d, %d bytes; want %d bytes", next, hdr.MsgID, len(data), len(want))
					}
					if next++; next == len(sizes) {
						close(done)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			rx.Start()
			tx := sendMixed(t, tc.network, tc.addr, rx.LocalAddrPort())
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d packets arrived", rx.Stats().DatagramsIn, len(sizes))
			}
			checkSegmented(t, tx)
		})
	}
	t.Run("plain-socket", func(t *testing.T) {
		rx := listenUDP(t, "udp4", "127.0.0.1:0")
		defer rx.Close()
		_ = rx.SetReadBuffer(socketBuffer) // the burst outruns a default buffer
		tx := sendMixed(t, "udp4", "127.0.0.1:0", rx.LocalAddr().(*net.UDPAddr).AddrPort())
		buf := make([]byte, 4096)
		_ = rx.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i, size := range sizes {
			n, _, err := rx.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatalf("datagram %d: %v", i, err)
			}
			hdr, payload := mixedPacket(i, size)
			want, err := hdr.Encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, payload...); !bytes.Equal(buf[:n], want) {
				t.Fatalf("datagram %d: %d bytes, want %d identical ones", i, n, len(want))
			}
		}
		checkSegmented(t, tx)
	})
}

// TestSegmentedSendFallback: a kernel that refuses a segmented send (here a
// send callback that fails every call whose first message carries a control
// buffer, as a route without checksum offload would) loses nothing: the run
// goes out again as single datagrams, segmentation stays off for the socket,
// and later batches never try again.
func TestSegmentedSendFallback(t *testing.T) {
	const count = 40
	got := make(chan uint64, 2*count)
	rx, err := NewTransport(Config{
		Conn: listenUDP(t, "udp4", "127.0.0.1:0"),
		OnPacket: func(_ netip.AddrPort, hdr *wire.Header, data []byte) {
			if len(data) == 1200 {
				got <- hdr.MsgID
			}
		},
	})
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
	m := tx.io.(*mmsgIO)
	if !m.gso {
		t.Skip("no UDP_SEGMENT on this socket: nothing to fall back from")
	}
	refused, controls := 0, 0
	m.sendFn = func(fd uintptr) bool {
		for i := range m.whdrs[:m.wwant] {
			if m.whdrs[i].hdr.Control == nil {
				continue
			}
			controls++
			if i == 0 {
				refused++
				m.werr, m.wgot = syscall.EIO, -1
				return true
			}
			m.wwant = i // sendmmsg stops before the message it cannot send
			break
		}
		return m.send(fd)
	}
	// burst queues count datagrams and writes them with one Flush: one batch,
	// one run.
	burst := func(base int) {
		payload := make([]byte, 1200)
		for i := 0; i < count; i++ {
			hdr := wire.Header{Type: wire.TypeData, SrcPort: 9, DstPort: 7, MsgID: uint64(base + i), MsgPkts: 1, MsgBytes: 1200, PktLen: 1200}
			if !tx.Queue(rx.LocalAddrPort(), &hdr, payload) {
				t.Fatalf("queue %d dropped at the ring", base+i)
			}
		}
		tx.Flush()
	}
	expect := func(base int) {
		t.Helper()
		for i := 0; i < count; i++ {
			select {
			case id := <-got:
				if id != uint64(base+i) {
					t.Fatalf("packet %d arrived where %d was due", id, base+i)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d packets arrived", i, count)
			}
		}
	}
	burst(0)
	expect(0)
	if refused != 1 || m.gso {
		t.Fatalf("%d refusals, segmentation still on: %v; want one refusal that turns it off", refused, m.gso)
	}
	burst(count)
	expect(count)
	if st := tx.Stats(); st.DatagramsOut != 2*count || st.KernelMsgsOut != 2*count {
		t.Errorf("%d datagrams in %d kernel messages, want %d singles", st.DatagramsOut, st.KernelMsgsOut, 2*count)
	}
	if controls != 1 {
		t.Errorf("%d control buffers offered to the kernel, want the one that was refused", controls)
	}
}

// queuedPair returns a sender that has already written the given datagram
// sizes, queued and flushed once, to a receiver whose reader is not running
// yet, so the receiver's socket holds all of them when its reader starts.
// brackets gets the size of every bracket the receiver closes.
func queuedPair(t *testing.T, sizes []int) (rx, tx *Transport, brackets chan int) {
	t.Helper()
	brackets = make(chan int, len(sizes))
	open := 0
	rx, err := NewTransport(Config{
		Conn:       listenUDP(t, "udp4", "127.0.0.1:0"),
		OnPacket:   func(netip.AddrPort, *wire.Header, []byte) { open++ },
		OnBatchEnd: func() { brackets <- open; open = 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rx.Close() })
	tx, err = NewTransport(Config{Conn: listenUDP(t, "udp4", "127.0.0.1:0"), OnPacket: func(netip.AddrPort, *wire.Header, []byte) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Close() })
	for i, size := range sizes {
		hdr, payload := mixedPacket(i, size)
		if !tx.Queue(rx.LocalAddrPort(), &hdr, payload) {
			t.Fatalf("queue %d dropped at the ring", i)
		}
	}
	tx.Flush()
	if n := tx.Stats().DatagramsOut; n != uint64(len(sizes)) {
		t.Fatalf("%d of %d datagrams sent", n, len(sizes))
	}
	return rx, tx, brackets
}

func collectBrackets(t *testing.T, brackets chan int, total int) []int {
	t.Helper()
	var got []int
	for sum := 0; sum < total; {
		select {
		case n := <-brackets:
			got = append(got, n)
			sum += n
		case <-time.After(2 * time.Second):
			t.Fatalf("brackets %v closed, then nothing: %d of %d datagrams", got, sum, total)
		}
	}
	return got
}

// TestBracketBoundedInPackets: a bracket is at most 32 datagrams however the
// kernel packaged them. One recvmmsg over two 64 KB slots can return more
// than a hundred, so the bound cannot be "one read"; with 200 queued the
// reader must close a bracket after every 32nd and after the last.
func TestBracketBoundedInPackets(t *testing.T) {
	sizes := mixedSizes()
	rx, _, brackets := queuedPair(t, sizes)
	rx.Start()
	got := collectBrackets(t, brackets, len(sizes))
	want := []int{32, 32, 32, 32, 32, 32, 8}
	if len(got) != len(want) {
		t.Fatalf("brackets of %v datagrams, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("brackets of %v datagrams, want %v", got, want)
		}
	}
	st := rx.Stats()
	if st.DatagramsIn != uint64(len(sizes)) {
		t.Errorf("%d datagrams counted in, want %d", st.DatagramsIn, len(sizes))
	}
	if m := rx.io.(*mmsgIO); m.gro && st.KernelMsgsIn*4 > st.DatagramsIn {
		t.Errorf("UDP_GRO is on, yet %d datagrams came in %d kernel messages", st.DatagramsIn, st.KernelMsgsIn)
	}
	t.Logf("%d datagrams in %d kernel messages, %d reads", st.DatagramsIn, st.KernelMsgsIn, st.BatchesIn)
}

// TestReaderNeverWaitsWithBracketOpen: exactly two coalesced datagrams fill
// both slots of a UDP_GRO socket, which makes the reader look for more; when
// there is no more it must close the bracket at once, not on the next
// arrival — nothing else is coming.
func TestReaderNeverWaitsWithBracketOpen(t *testing.T) {
	var sizes []int
	for i := 0; i < 20; i++ {
		sizes = append(sizes, 1200-300*(i/10)) // two runs of ten
	}
	rx, tx, brackets := queuedPair(t, sizes)
	start := time.Now()
	rx.Start()
	got := collectBrackets(t, brackets, len(sizes))
	if len(got) != 1 {
		t.Errorf("brackets of %v datagrams, want all %d in one", got, len(sizes))
	}
	st := rx.Stats()
	t.Logf("bracket closed %v after the reader started: %d datagrams, %d kernel messages, %d reads",
		time.Since(start), st.DatagramsIn, st.KernelMsgsIn, st.BatchesIn)
	if tx.io.(*mmsgIO).gso && rx.io.(*mmsgIO).gro && (st.KernelMsgsIn != 2 || st.BatchesIn != 1) {
		t.Errorf("%d kernel messages in %d reads, want the two runs in one", st.KernelMsgsIn, st.BatchesIn)
	}
}
