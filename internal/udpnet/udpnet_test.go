// Real-socket transport tests: the batched loopback path, the lossy soak
// proving exactly-once delivery through drop/dup/reorder on real sockets,
// and the steady-state allocation gate.
package udpnet_test

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtp"
	"mtp/internal/check"
	"mtp/internal/simnet"
	"mtp/internal/udpnet"
	"mtp/internal/wire"
)

func udpConn(t *testing.T) *net.UDPConn {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return pc.(*net.UDPConn)
}

// offload finds out, by looking, whether loopback sockets here get segmented
// sends and coalesced receives: eight equal datagrams that are queued and
// flushed at once, before the receiver's reader runs, leave in fewer kernel
// messages than datagrams, or arrive so, exactly when the kernel lends a hand.
func offload(t *testing.T) (gso, gro bool) {
	t.Helper()
	const burst = 8
	got := make(chan struct{}, burst)
	rx, err := udpnet.NewTransport(udpnet.Config{Conn: udpConn(t), OnPacket: func(netip.AddrPort, *wire.Header, []byte) {
		got <- struct{}{}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := udpnet.NewTransport(udpnet.Config{Conn: udpConn(t), OnPacket: func(netip.AddrPort, *wire.Header, []byte) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	hdr := wire.Header{Type: wire.TypeData, SrcPort: 9, DstPort: 7, MsgPkts: 1, MsgBytes: 64, PktLen: 64}
	for i := 0; i < burst; i++ {
		tx.Queue(rx.LocalAddrPort(), &hdr, make([]byte, 64))
	}
	tx.Flush()
	rx.Start()
	for i := 0; i < burst; i++ {
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("offload probe: %d of %d datagrams arrived", i, burst)
		}
	}
	ts, rs := tx.Stats(), rx.Stats()
	return ts.KernelMsgsOut < ts.DatagramsOut, rs.KernelMsgsIn < rs.DatagramsIn
}

// TestTransportLoopbackBatched drives the raw Transport pair over real UDP:
// every datagram must arrive intact, and the sender side must actually
// batch (fewer write syscalls than datagrams) a burst queued and flushed at
// once.
func TestTransportLoopbackBatched(t *testing.T) {
	const count = 512
	recvd := make(chan uint64, count)
	var rx *udpnet.Transport
	var err error
	rx, err = udpnet.NewTransport(udpnet.Config{
		Conn: udpConn(t),
		OnPacket: func(from netip.AddrPort, hdr *wire.Header, data []byte) {
			if hdr.Type == wire.TypeData && len(data) == 64 && data[0] == byte(hdr.MsgID) {
				recvd <- hdr.MsgID
			}
		},
	})
	if err != nil {
		t.Fatalf("rx transport: %v", err)
	}
	defer rx.Close()
	rx.Start()

	tx, err := udpnet.NewTransport(udpnet.Config{
		Conn:     udpConn(t),
		OnPacket: func(netip.AddrPort, *wire.Header, []byte) {},
	})
	if err != nil {
		t.Fatalf("tx transport: %v", err)
	}
	defer tx.Close()

	dst := rx.LocalAddrPort()
	payload := make([]byte, 64)
	hdr := wire.Header{Type: wire.TypeData, SrcPort: 9, DstPort: 7, MsgPkts: 1, MsgBytes: 64, PktLen: 64}
	for i := 0; i < count; i++ {
		hdr.MsgID = uint64(i)
		payload[0] = byte(i)
		if !tx.Queue(dst, &hdr, payload) {
			t.Fatalf("queue %d dropped at the ring", i)
		}
	}
	tx.Flush()
	seen := make(map[uint64]bool)
	timeout := time.After(5 * time.Second)
	for len(seen) < count {
		select {
		case id := <-recvd:
			seen[id] = true
		case <-timeout:
			t.Fatalf("received %d/%d datagrams", len(seen), count)
		}
	}
	ts, rs := tx.Stats(), rx.Stats()
	if ts.DatagramsOut != count {
		t.Fatalf("tx datagrams %d, want %d", ts.DatagramsOut, count)
	}
	if rs.DatagramsIn < count {
		t.Fatalf("rx datagrams %d, want >= %d", rs.DatagramsIn, count)
	}
	if ts.BatchesOut >= ts.DatagramsOut {
		t.Errorf("no write batching: %d syscalls for %d datagrams", ts.BatchesOut, ts.DatagramsOut)
	}
	t.Logf("tx: %d datagrams in %d syscalls (max batch %d); rx: %d in %d (max %d)",
		ts.DatagramsOut, ts.BatchesOut, ts.MaxBatchOut, rs.DatagramsIn, rs.BatchesIn, rs.MaxBatchIn)
}

// TestNoDatagramStranded: Flush writes only when the write lock is free and
// otherwise leaves the ring to the goroutine holding it, which looks again
// after letting go. Eight goroutines queue and flush 2 000 datagrams each,
// released together for every datagram; whenever all eight Flush calls have
// returned, every datagram queued so far has been written, and the sink
// counts exactly 16 000 on arrival. A window on what is in flight keeps the
// receiver's queue from overflowing.
func TestNoDatagramStranded(t *testing.T) {
	const goroutines, each, window = 8, 2000, 128
	const total = goroutines * each
	mem := mtp.NewMemNetwork(5)
	memConn := func(name string) net.PacketConn {
		pc, err := mem.Listen(name)
		if err != nil {
			t.Fatalf("listen %s: %v", name, err)
		}
		return pc
	}
	for _, tc := range []struct {
		name   string
		tx, rx net.PacketConn
	}{
		{"mem", memConn("tx"), memConn("rx")},
		{"udp", udpConn(t), udpConn(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got atomic.Int64
			rx, err := udpnet.NewTransport(udpnet.Config{Conn: tc.rx, OnPacket: func(netip.AddrPort, *wire.Header, []byte) {
				got.Add(1)
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			rx.Start()
			tx, err := udpnet.NewTransport(udpnet.Config{Conn: tc.tx, OnPacket: func(netip.AddrPort, *wire.Header, []byte) {}})
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()

			dst := rx.LocalAddrPort()
			payload := make([]byte, 8)
			for i := 0; i < each; i++ {
				for deadline := time.Now().Add(5 * time.Second); int64(i*goroutines)-got.Load() >= window; time.Sleep(50 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d of %d datagrams arrived", got.Load(), i*goroutines)
					}
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						hdr := wire.Header{Type: wire.TypeData, SrcPort: uint16(g), DstPort: 7, MsgID: uint64(i), MsgPkts: 1, MsgBytes: 8, PktLen: 8}
						<-start
						if !tx.Queue(dst, &hdr, payload) {
							t.Errorf("goroutine %d: datagram %d dropped at the ring", g, i)
						}
						tx.Flush()
					}(g)
				}
				close(start)
				wg.Wait()
				if st := tx.Stats(); st.DatagramsOut != uint64((i+1)*goroutines) {
					t.Fatalf("round %d: %d of %d datagrams written when every Flush had returned", i, st.DatagramsOut, (i+1)*goroutines)
				}
			}
			for deadline := time.Now().Add(5 * time.Second); got.Load() < total && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond) // room for a datagram too many
			if n := got.Load(); n != total {
				t.Fatalf("the sink counted %d datagrams, want %d", n, total)
			}
		})
	}
}

// delivery is one message observed at the soak receiver.
type delivery struct {
	srcPort uint16
	msgID   uint64
	data    []byte
}

// TestNodeSoakLossyExactlyOnce runs the full node stack between two real
// sockets with a userspace interposer injecting drop, duplication, and
// reordering on both directions, then audits every message against the
// shared check ledger: delivered exactly once, byte-identical.
func TestNodeSoakLossyExactlyOnce(t *testing.T) {
	count := 10000
	if testing.Short() {
		count = 2000
	}
	const concurrency = 64

	lossA := udpnet.NewLossy(udpConn(t), 41)
	lossB := udpnet.NewLossy(udpConn(t), 42)
	for _, l := range []*udpnet.Lossy{lossA, lossB} {
		l.Drop, l.Dup, l.Reorder = 0.03, 0.02, 0.02
	}

	var mu sync.Mutex
	var got []delivery
	sink, err := mtp.NewNode(lossB, mtp.Config{Port: 7, OnMessage: func(m mtp.Message) {
		mu.Lock()
		got = append(got, delivery{m.SrcPort, m.ID, append([]byte(nil), m.Data...)})
		mu.Unlock()
	}})
	if err != nil {
		t.Fatalf("sink: %v", err)
	}
	defer sink.Close()

	src, err := mtp.NewNode(lossA, mtp.Config{Port: 9, RTO: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("src: %v", err)
	}
	defer src.Close()

	reg := check.NewMsgRegistry()
	const srcNode = simnet.NodeID(1)
	target := sink.Addr().String()

	// Mixed sizes: mostly single-packet, some multi-packet so reassembly,
	// NACKs, and per-packet retransmission all run under injected faults.
	payloadFor := func(i int) []byte {
		size := 200 + i%700
		if i%10 == 0 {
			size = 3000 // 3 packets at the default 1200-byte MSS
		}
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i + j)
		}
		return p
	}

	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	var timeouts atomic.Int32
	var regMu sync.Mutex
	for i := 0; i < count; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			data := payloadFor(i)
			out, err := src.Send(target, 7, data)
			if err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			regMu.Lock()
			rerr := reg.RecordSend(srcNode, 9, out.ID, data)
			regMu.Unlock()
			if rerr != nil {
				t.Errorf("record send %d: %v", i, rerr)
			}
			select {
			case <-out.Done():
			case <-time.After(30 * time.Second):
				timeouts.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := timeouts.Load(); n > 0 {
		t.Fatalf("%d messages never acknowledged", n)
	}
	// Every message is end-to-end acknowledged, which MTP only does after
	// delivery, so the receiver log is complete; reconcile it with the
	// ledger.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= count || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != count {
		t.Fatalf("receiver saw %d messages, want %d", len(got), count)
	}
	for _, d := range got {
		if err := reg.RecordDelivery(srcNode, d.srcPort, d.msgID, d.data); err != nil {
			t.Errorf("%v", err)
		}
	}
	if n := reg.Undelivered(); n != 0 {
		t.Errorf("%d acknowledged messages never delivered", n)
	}
	aDrops, aDups, aReord := lossA.Counts()
	bDrops, bDups, bReord := lossB.Counts()
	if aDrops == 0 || aDups == 0 || aReord == 0 {
		t.Errorf("fault injection idle: drops=%d dups=%d reorders=%d", aDrops, aDups, aReord)
	}
	st := src.Stats()
	if st.PktsRetx == 0 {
		t.Error("no retransmissions despite injected loss")
	}
	t.Logf("soak: %d msgs, src retx=%d timeouts=%d; injected drops=%d dups=%d reorders=%d",
		count, st.PktsRetx, st.Timeouts, aDrops+bDrops, aDups+bDups, aReord+bReord)
}

// TestNodeAcksPerReceiveBatch pins both arms of the batch contract with 50
// concurrent 64 KB messages (55 packets each), audited exactly-once against
// the check ledger. Over real UDP the sink's reader gets many datagrams per
// bracket and must acknowledge per bracket: at most one ACK packet for every
// four data packets, and — a bracket being at most 32 datagrams however many
// one recvmmsg returned — never more than 32 SACK refs in one ACK. Where the
// kernel segments and coalesces, the 55 packets of a message must also have
// travelled at least eight to a kernel message on both sides. Over the
// in-memory network every bracket is one datagram (connIO), which must behave
// as the unbracketed engine does: one ACK per data packet.
func TestNodeAcksPerReceiveBatch(t *testing.T) {
	gso, gro := offload(t)
	mem := mtp.NewMemNetwork(7)
	memConn := func(name string) net.PacketConn {
		pc, err := mem.Listen(name)
		if err != nil {
			t.Fatalf("listen %s: %v", name, err)
		}
		return pc
	}
	for _, tc := range []struct {
		name     string
		src, dst net.PacketConn
		check    func(t *testing.T, src, sink mtp.Stats)
	}{
		{"udp", udpConn(t), udpConn(t), func(t *testing.T, src, st mtp.Stats) {
			if st.AcksSent*4 > st.PktsReceived {
				t.Errorf("%d ACK packets for %d data packets, want at most one per four", st.AcksSent, st.PktsReceived)
			}
			if st.BatchesIn == 0 || st.DatagramsIn < st.PktsReceived {
				t.Errorf("transport counters not surfaced: %d datagrams in %d batches", st.DatagramsIn, st.BatchesIn)
			}
			if !gso || !gro {
				t.Logf("no segmentation offload on this host (send %v, receive %v): datagrams per kernel message not checked", gso, gro)
				return
			}
			if raceEnabled {
				// The instrumented engine queues so slowly against the
				// flushes that they find short runs.
				t.Log("race detector on: datagrams per kernel message not checked")
				return
			}
			if src.DatagramsOut < 8*src.KernelMsgsOut {
				t.Errorf("source: %d datagrams in %d kernel messages, want at least 8 to one", src.DatagramsOut, src.KernelMsgsOut)
			}
			if st.DatagramsIn < 8*st.KernelMsgsIn {
				t.Errorf("sink: %d datagrams in %d kernel messages, want at least 8 to one", st.DatagramsIn, st.KernelMsgsIn)
			}
		}},
		{"mem", memConn("src"), memConn("sink"), func(t *testing.T, _, st mtp.Stats) {
			if st.AcksSent != st.PktsReceived {
				t.Errorf("%d ACK packets for %d data packets, want one each (batches of one)", st.AcksSent, st.PktsReceived)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const count = 50
			var mu sync.Mutex
			var got []delivery
			// The trace ring is large enough to keep every event of the run.
			sink, err := mtp.NewNode(tc.dst, mtp.Config{Port: 7, TraceEvents: 1 << 14, OnMessage: func(m mtp.Message) {
				mu.Lock()
				got = append(got, delivery{m.SrcPort, m.ID, m.Data})
				mu.Unlock()
			}})
			if err != nil {
				t.Fatalf("sink: %v", err)
			}
			defer sink.Close()
			src, err := mtp.NewNode(tc.src, mtp.Config{Port: 9})
			if err != nil {
				t.Fatalf("src: %v", err)
			}
			defer src.Close()

			reg := check.NewMsgRegistry()
			const srcNode = simnet.NodeID(1)
			outs := make([]*mtp.Outgoing, count)
			for i := range outs {
				data := make([]byte, 64<<10)
				for j := range data {
					data[j] = byte(i + j)
				}
				if outs[i], err = src.Send(sink.Addr().String(), 7, data); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				if err := reg.RecordSend(srcNode, 9, outs[i].ID, data); err != nil {
					t.Fatalf("record send %d: %v", i, err)
				}
			}
			for i, out := range outs {
				select {
				case <-out.Done():
				case <-time.After(30 * time.Second):
					t.Fatalf("message %d never acknowledged", i)
				}
			}
			// The sink's last ACK leaves at EndBatch, before that batch's
			// deliveries are handed to OnMessage.
			for wait := time.Now().Add(5 * time.Second); time.Now().Before(wait); time.Sleep(time.Millisecond) {
				mu.Lock()
				n := len(got)
				mu.Unlock()
				if n >= count {
					break
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for _, d := range got {
				if err := reg.RecordDelivery(srcNode, d.srcPort, d.msgID, d.data); err != nil {
					t.Errorf("%v", err)
				}
			}
			if n := reg.Undelivered(); n != 0 || len(got) != count {
				t.Fatalf("%d deliveries, %d acknowledged messages never delivered", len(got), n)
			}
			st, ss := sink.Stats(), src.Stats()
			t.Logf("sink: %d data packets, %d ACK packets, %d datagrams in %d kernel messages in %d reads; source: %d datagrams in %d kernel messages in %d writes",
				st.PktsReceived, st.AcksSent, st.DatagramsIn, st.KernelMsgsIn, st.BatchesIn, ss.DatagramsOut, ss.KernelMsgsOut, ss.BatchesOut)
			tc.check(t, ss, st)
			// Every ACK the sink sent is a trace line "ACK> ... a=<SACK refs>".
			acks, most := 0, 0
			for _, line := range strings.Split(sink.TraceDump(), "\n") {
				if i := strings.Index(line, " a="); i >= 0 && strings.Contains(line, "ACK>") {
					var refs int
					fmt.Sscanf(line[i:], " a=%d", &refs)
					acks++
					most = max(most, refs)
				}
			}
			// (A straggling retransmission may add an ACK after the snapshot.)
			if uint64(acks) < st.AcksSent || most > 32 {
				t.Errorf("%d of %d ACKs traced, the largest with %d SACK refs; want all of them and at most 32", acks, st.AcksSent, most)
			}
		})
	}
}

// TestUDPEnvSteadyStateAllocs gates allocations per message round-trip over
// real sockets. The transport itself is allocation-free at steady state
// (pooled send buffers, fixed receive buffers, reused headers, syscall
// callbacks built once); what remains is the public-API cost per message
// (the Outgoing handle, which holds the sender's message state, its done
// channel, and the reassembly buffer) plus this loop's own time.After. The
// budgets are the measured 6 and 8 plus 3 for scheduler noise (the race
// detector reads 7 on 512 B). The 64 KB message is 55 packets and costs two
// allocations more than the one-packet message (its packet-state slice, and a
// send buffer now and then: 64 KB reassembly buffers bring GCs, and a GC
// empties the sync.Pool).
// Nothing is allocated per packet, per ACK or per syscall, or the budget
// would be blown 55 times over. The lossy case puts both sockets behind a
// Lossy that injects nothing, so the transport takes the portable connIO
// path: it holds the 512 B budget too, reading and writing without boxing an
// address.
func TestUDPEnvSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		size   int
		msgs   int
		budget float64
		lossy  bool
	}{
		{"512B", 512, 2000, 9, false},
		{"512B/lossy", 512, 2000, 9, true},
		{"64KB", 64 << 10, 300, 11, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.size > 512 {
				t.Skip("sync.Pool drops a quarter of Puts under the race detector: one allocation per four packets")
			}
			conn := func(seed int64) net.PacketConn {
				if tc.lossy {
					return udpnet.NewLossy(udpConn(t), seed)
				}
				return udpConn(t)
			}
			var received atomic.Int64
			sink, err := mtp.NewNode(conn(1), mtp.Config{Port: 7, OnMessage: func(m mtp.Message) {
				received.Add(1)
			}})
			if err != nil {
				t.Fatalf("sink: %v", err)
			}
			defer sink.Close()
			src, err := mtp.NewNode(conn(2), mtp.Config{Port: 9})
			if err != nil {
				t.Fatalf("src: %v", err)
			}
			defer src.Close()

			target := sink.Addr().String()
			payload := make([]byte, tc.size)
			send := func(n int) {
				for i := 0; i < n; i++ {
					out, err := src.Send(target, 7, payload)
					if err != nil {
						t.Fatalf("send: %v", err)
					}
					select {
					case <-out.Done():
					case <-time.After(10 * time.Second):
						t.Fatal("message not acknowledged")
					}
				}
			}
			send(300) // warm pools, peer caches, cc state

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			send(tc.msgs)
			runtime.ReadMemStats(&after)
			perMsg := float64(after.Mallocs-before.Mallocs) / float64(tc.msgs)
			t.Logf("allocs/msg = %.1f", perMsg)
			if perMsg > tc.budget {
				t.Fatalf("allocs/msg = %.1f, want <= %v (transport must stay pooled)", perMsg, tc.budget)
			}
		})
	}
}

// TestTransportIPv6Loopback runs the batched path over ::1, covering the
// AF_INET6 sockaddr encode/decode legs that the v4 tests never touch.
func TestTransportIPv6Loopback(t *testing.T) {
	pc6 := func() *net.UDPConn {
		pc, err := net.ListenPacket("udp6", "[::1]:0")
		if err != nil {
			t.Skipf("no IPv6 loopback: %v", err)
		}
		return pc.(*net.UDPConn)
	}
	const count = 64
	recvd := make(chan uint64, count)
	rx, err := udpnet.NewTransport(udpnet.Config{
		Conn: pc6(),
		OnPacket: func(from netip.AddrPort, hdr *wire.Header, data []byte) {
			if from.Addr().Is6() && hdr.Type == wire.TypeData {
				recvd <- hdr.MsgID
			}
		},
	})
	if err != nil {
		t.Fatalf("rx: %v", err)
	}
	defer rx.Close()
	rx.Start()
	tx, err := udpnet.NewTransport(udpnet.Config{Conn: pc6(), OnPacket: func(netip.AddrPort, *wire.Header, []byte) {}})
	if err != nil {
		t.Fatalf("tx: %v", err)
	}
	defer tx.Close()
	tx.Start()

	hdr := wire.Header{Type: wire.TypeData, SrcPort: 1, DstPort: 2, MsgPkts: 1, MsgBytes: 8, PktLen: 8}
	for i := 0; i < count; i++ {
		hdr.MsgID = uint64(i)
		if !tx.Send(rx.LocalAddrPort(), &hdr, make([]byte, 8)) {
			t.Fatalf("send %d dropped", i)
		}
	}
	seen := make(map[uint64]bool)
	timeout := time.After(5 * time.Second)
	for len(seen) < count {
		select {
		case id := <-recvd:
			seen[id] = true
		case <-timeout:
			t.Fatalf("got %d/%d over ::1", len(seen), count)
		}
	}
}

// TestTransportEdgePaths covers the non-happy Queue/Send/SetTimer branches:
// encode failure, ring overflow accounting, timer cancellation, and use
// after Close.
func TestTransportEdgePaths(t *testing.T) {
	fired := make(chan struct{}, 4)
	tr, err := udpnet.NewTransport(udpnet.Config{
		Conn:     udpConn(t),
		OnPacket: func(netip.AddrPort, *wire.Header, []byte) {},
		OnTimer:  func() { fired <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Encode error: an invalid packet type fails Header.Validate.
	bad := wire.Header{Type: 0xff}
	if tr.Send(netip.MustParseAddrPort("127.0.0.1:9"), &bad, nil) {
		t.Fatal("invalid header sent")
	}
	if tr.Stats().EncodeErrors != 1 {
		t.Fatalf("encode errors = %d", tr.Stats().EncodeErrors)
	}
	// Ring overflow: nothing flushes between the queues, so pushes past the
	// ring's 1024 datagrams must drop and count.
	const ringSize = 1024
	good := wire.Header{Type: wire.TypeData, SrcPort: 1, DstPort: 2, MsgPkts: 1, MsgBytes: 1, PktLen: 1}
	dst := netip.MustParseAddrPort("127.0.0.1:9")
	sent := 0
	for i := 0; i < ringSize+3; i++ {
		if tr.Queue(dst, &good, []byte{1}) {
			sent++
		}
	}
	if sent != ringSize || tr.Stats().RingFullDrops != 3 {
		t.Fatalf("sent=%d drops=%d, want %d/3", sent, tr.Stats().RingFullDrops, ringSize)
	}
	// Timer: cancel must stop a pending deadline; re-arm must fire.
	tr.SetTimer(tr.Now() + 5*time.Millisecond)
	tr.SetTimer(0) // cancel
	select {
	case <-fired:
		t.Fatal("cancelled timer fired")
	case <-time.After(30 * time.Millisecond):
	}
	tr.SetTimer(tr.Now() + 2*time.Millisecond)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("re-armed timer never fired")
	}
	tr.Start()
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close is idempotent, and Send and SetTimer after close drop without
	// panicking.
	if err := tr.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if tr.Send(dst, &good, []byte{1}) {
		t.Fatal("sent after close")
	}
	tr.SetTimer(tr.Now() + time.Millisecond)
}

// TestNewTransportValidation covers the constructor's error branches.
func TestNewTransportValidation(t *testing.T) {
	if _, err := udpnet.NewTransport(udpnet.Config{}); err == nil {
		t.Fatal("nil conn accepted")
	}
	if _, err := udpnet.NewTransport(udpnet.Config{Conn: udpConn(t)}); err == nil {
		t.Fatal("nil OnPacket accepted")
	}
}

// wrappedConn hides a socket's concrete type, so the Transport takes the
// one-datagram connIO path that every interposer runs on.
type wrappedConn struct{ net.PacketConn }

// TestTruncatedDatagramNeverDelivered: a sender whose MSS exceeds the
// receiver's buffers used to have its datagrams clipped silently, and the
// message then completed with the missing bytes as zeros. A clipped datagram
// must be dropped and counted instead: the message is never delivered wrong
// and never acknowledged. A socket with UDP_GRO has 64 KB receive buffers
// whatever its node was sized for, so there the same message arrives whole.
func TestTruncatedDatagramNeverDelivered(t *testing.T) {
	_, gro := offload(t)
	mem := mtp.NewMemNetwork(3)
	memConn := func(name string) net.PacketConn {
		pc, err := mem.Listen(name)
		if err != nil {
			t.Fatalf("listen %s: %v", name, err)
		}
		return pc
	}
	for _, tc := range []struct {
		name     string
		src, dst net.PacketConn
		whole    bool // the sink's buffers take the datagram after all
	}{
		{"mem", memConn("src"), memConn("sink"), false},         // ReadFrom clips with copy
		{"wrapped", udpConn(t), wrappedConn{udpConn(t)}, false}, // the kernel clips, ReadFrom does not say so
		{"udp", udpConn(t), udpConn(t), gro},                    // recvmmsg flags MSG_TRUNC
	} {
		t.Run(tc.name, func(t *testing.T) {
			delivered := make(chan []byte, 4)
			sink, err := mtp.NewNode(tc.dst, mtp.Config{Port: 7, OnMessage: func(m mtp.Message) {
				delivered <- append([]byte(nil), m.Data...)
			}})
			if err != nil {
				t.Fatalf("sink: %v", err)
			}
			defer sink.Close()
			// One 8 KB packet per message; the default sink sizes its buffers
			// for a 1200-byte MSS.
			src, err := mtp.NewNode(tc.src, mtp.Config{Port: 9, MSS: 8000, RTO: 5 * time.Millisecond})
			if err != nil {
				t.Fatalf("src: %v", err)
			}
			defer src.Close()
			data := make([]byte, 8000)
			for i := range data {
				data[i] = byte(i%251) + 1 // never zero
			}
			out, err := src.Send(sink.Addr().String(), 7, data)
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			if tc.whole {
				select {
				case got := <-delivered:
					if !bytes.Equal(got, data) {
						t.Fatalf("delivered %d bytes that are not the %d sent", len(got), len(data))
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a datagram that fits a 64 KB receive buffer never arrived")
				}
				if n := sink.Stats().TruncatedDrops; n != 0 {
					t.Fatalf("%d truncated datagrams counted, want none", n)
				}
				return
			}
			for wait := time.Now().Add(5 * time.Second); sink.Stats().TruncatedDrops < 3; time.Sleep(time.Millisecond) {
				if time.Now().After(wait) {
					t.Fatalf("the sink counted %d truncated datagrams, want the original and its retransmissions", sink.Stats().TruncatedDrops)
				}
			}
			select {
			case got := <-delivered:
				t.Fatalf("a clipped message was delivered: %d bytes, %d of them zero", len(got), bytes.Count(got, []byte{0}))
			case <-out.Done():
				t.Fatal("a message that never arrived whole was acknowledged")
			default:
			}
		})
	}
}
