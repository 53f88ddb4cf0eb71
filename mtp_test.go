package mtp

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mtp/internal/udpnet"
)

// collected records the messages a node's OnMessage delivers.
type collected struct {
	mu   sync.Mutex
	msgs []Message
}

func (c *collected) add(m Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *collected) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collected) get(i int) Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs[i]
}

// testNet is the network a Node test runs on: the in-memory network or UDP
// loopback. Tests address a peer by its Addr().String(), which on the
// in-memory network is the name it listened on.
type testNet struct {
	mem  *MemNetwork // nil: UDP loopback
	seed int64
	loss float64 // drop probability; set before the first listen
	// wrap, when set, interposes on every conn listen opens.
	wrap func(net.PacketConn) net.PacketConn
}

// eachNet runs body once per network, as subtests "mem" and "udp".
func eachNet(t *testing.T, seed int64, body func(t *testing.T, tn *testNet)) {
	t.Run("mem", func(t *testing.T) { body(t, &testNet{mem: NewMemNetwork(seed), seed: seed}) })
	t.Run("udp", func(t *testing.T) { body(t, &testNet{seed: seed}) })
}

func (tn *testNet) listen(t *testing.T, name string) net.PacketConn {
	t.Helper()
	pc := tn.open(t, name)
	if tn.wrap != nil {
		pc = tn.wrap(pc)
	}
	return pc
}

func (tn *testNet) open(t *testing.T, name string) net.PacketConn {
	t.Helper()
	if tn.mem != nil {
		tn.mem.Loss = tn.loss
		pc, err := tn.mem.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		return pc
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	if tn.loss > 0 {
		l := udpnet.NewLossy(pc, tn.seed)
		l.Drop = tn.loss
		pc = l
	}
	return pc
}

// node starts a Node on a fresh endpoint and closes it with the test.
func (tn *testNet) node(t *testing.T, name string, cfg Config) *Node {
	t.Helper()
	n, err := NewNode(tn.listen(t, name), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// pair starts nodes "a" and "b"; b records its messages unless cfgB has its
// own handler.
func (tn *testNet) pair(t *testing.T, cfgA, cfgB Config) (*Node, *Node, *collected) {
	t.Helper()
	col := &collected{}
	if cfgB.OnMessage == nil {
		cfgB.OnMessage = col.add
	}
	return tn.node(t, "a", cfgA), tn.node(t, "b", cfgB), col
}

func waitDone(t *testing.T, o *Outgoing, d time.Duration) {
	t.Helper()
	select {
	case <-o.Done():
	case <-time.After(d):
		t.Fatalf("message %d not acknowledged within %v", o.ID, d)
	}
}

func TestNodeRoundTrip(t *testing.T) {
	eachNet(t, 1, func(t *testing.T, tn *testNet) {
		na, nb, col := tn.pair(t, Config{Port: 10}, Config{Port: 20})
		data := []byte("hello over the network")
		out, err := na.Send(nb.Addr().String(), 20, data)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, out, 2*time.Second)
		deadline := time.Now().Add(time.Second)
		for col.len() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if col.len() != 1 {
			t.Fatalf("delivered %d", col.len())
		}
		m := col.get(0)
		if !bytes.Equal(m.Data, data) || m.SrcPort != 10 || m.DstPort != 20 {
			t.Fatalf("message = %+v", m)
		}
		if m.From.String() != na.Addr().String() {
			t.Fatalf("from = %v", m.From)
		}
		// b only ever ACKed, so a has no From address cached for it.
		na.mu.Lock()
		defer na.mu.Unlock()
		if len(na.fromByAP) != 0 {
			t.Fatalf("sender cached From addresses for a peer that delivered nothing: %v", na.fromByAP)
		}
	})
}

func TestNodeMultiPacketWithLoss(t *testing.T) {
	eachNet(t, 2, func(t *testing.T, tn *testNet) {
		tn.loss = 0.05
		na, nb, col := tn.pair(t,
			Config{Port: 1, MSS: 512, RTO: 20 * time.Millisecond},
			Config{Port: 2})
		data := make([]byte, 64<<10)
		rand.New(rand.NewSource(5)).Read(data)
		out, err := na.Send(nb.Addr().String(), 2, data)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, out, 10*time.Second)
		deadline := time.Now().Add(2 * time.Second)
		for col.len() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if col.len() != 1 {
			t.Fatalf("delivered %d", col.len())
		}
		if !bytes.Equal(col.get(0).Data, data) {
			t.Fatal("data corrupt under loss")
		}
		if na.Stats().PktsRetx == 0 {
			t.Fatal("no retransmissions under 5% loss")
		}
	})
}

func TestNodeBidirectional(t *testing.T) {
	eachNet(t, 3, func(t *testing.T, tn *testNet) {
		var gotA []Message
		var muA sync.Mutex
		na, nb, col := tn.pair(t,
			Config{Port: 1, OnMessage: func(m Message) {
				muA.Lock()
				gotA = append(gotA, m)
				muA.Unlock()
			}},
			Config{Port: 2})
		o1, err := na.Send(nb.Addr().String(), 2, []byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, o1, 2*time.Second)
		o2, err := nb.Send(na.Addr().String(), 1, []byte("pong"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, o2, 2*time.Second)
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			muA.Lock()
			n := len(gotA)
			muA.Unlock()
			if n == 1 && col.len() == 1 {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("deliveries: a=%d b=%d", len(gotA), col.len())
	})
}

func TestNodeManyMessagesConcurrent(t *testing.T) {
	eachNet(t, 4, func(t *testing.T, tn *testNet) {
		na, nb, col := tn.pair(t, Config{Port: 1, MSS: 600}, Config{Port: 2})
		const n = 50
		outs := make([]*Outgoing, n)
		payloads := make([][]byte, n)
		r := rand.New(rand.NewSource(7))
		for i := 0; i < n; i++ {
			payloads[i] = make([]byte, 1+r.Intn(8000))
			r.Read(payloads[i])
			o, err := na.Send(nb.Addr().String(), 2, payloads[i])
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = o
		}
		for _, o := range outs {
			waitDone(t, o, 10*time.Second)
		}
		deadline := time.Now().Add(2 * time.Second)
		for col.len() < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if col.len() != n {
			t.Fatalf("delivered %d/%d", col.len(), n)
		}
		seen := map[uint64]bool{}
		for i := 0; i < n; i++ {
			m := col.get(i)
			if seen[m.ID] {
				t.Fatalf("duplicate delivery of %d", m.ID)
			}
			seen[m.ID] = true
			if !bytes.Equal(m.Data, payloads[m.ID-1]) {
				t.Fatalf("message %d corrupt", m.ID)
			}
		}
	})
}

func TestNodeOverUDP(t *testing.T) {
	tn := &testNet{}
	na, nb, col := tn.pair(t, Config{Port: 1}, Config{Port: 2})
	data := make([]byte, 100<<10)
	rand.New(rand.NewSource(9)).Read(data)
	out, err := na.Send(nb.Addr().String(), 2, data)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, out, 10*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for col.len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if col.len() != 1 || !bytes.Equal(col.get(0).Data, data) {
		t.Fatalf("UDP delivery failed: %d messages", col.len())
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := NewNode(nil, Config{}); err == nil {
		t.Fatal("nil conn accepted")
	}
	mn := NewMemNetwork(1)
	pc, _ := mn.Listen("x")
	if _, err := NewNode(pc, Config{MSS: 5}); err == nil {
		t.Fatal("tiny MSS accepted")
	}
	if _, err := NewNode(pc, Config{CC: "bogus"}); err == nil {
		t.Fatal("bogus CC accepted")
	}
	n, err := NewNode(pc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send("y", 1, nil); err == nil {
		t.Fatal("empty message accepted")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal("second close errored:", err)
	}
	if _, err := n.Send("y", 1, []byte("x")); err == nil {
		t.Fatal("send on closed node accepted")
	}
}

func TestMemNetworkAddressing(t *testing.T) {
	mn := NewMemNetwork(1)
	a, err := mn.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mn.Listen("a"); err == nil {
		t.Fatal("duplicate address accepted")
	}
	if a.LocalAddr().Network() != "mem" || a.LocalAddr().String() != "a" {
		t.Fatalf("addr = %v", a.LocalAddr())
	}
	if err := a.SetDeadline(time.Now()); err != nil {
		t.Fatal(err)
	}
	// A datagram reaches its peer whether the destination is the peer's own
	// address or the UDP-shaped form the transport carries it in.
	b, err := mn.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	for _, to := range []net.Addr{b.LocalAddr(), net.UDPAddrFromAddrPort(memAddr("b").AddrPort())} {
		if _, err := a.WriteTo([]byte("x"), to); err != nil {
			t.Fatal(err)
		}
		if _, from, err := b.ReadFrom(make([]byte, 8)); err != nil || from.String() != "a" {
			t.Fatalf("via %v: from = %v, err = %v", to, from, err)
		}
	}
	a.Close()
	if _, err := a.WriteTo([]byte("x"), memAddr("b")); err == nil {
		t.Fatal("write on closed conn accepted")
	}
	// The name is free again after close.
	if _, err := mn.Listen("a"); err != nil {
		t.Fatal(err)
	}
}

// TestNodeReplyFromHandler guards against deadlock when OnMessage calls
// Send (the echo-server pattern).
func TestNodeReplyFromHandler(t *testing.T) {
	eachNet(t, 8, func(t *testing.T, tn *testNet) {
		gotReply := make(chan []byte, 1)
		na := tn.node(t, "a", Config{Port: 1, OnMessage: func(m Message) {
			select {
			case gotReply <- m.Data:
			default:
			}
		}})
		var nb *Node
		ready := make(chan struct{}) // orders the write of nb before the handler's read
		nb = tn.node(t, "b", Config{Port: 2, OnMessage: func(m Message) {
			<-ready
			if _, err := nb.Send(m.From.String(), m.SrcPort, append([]byte("echo:"), m.Data...)); err != nil {
				t.Errorf("reply: %v", err)
			}
		}})
		close(ready)

		out, err := na.Send(nb.Addr().String(), 2, []byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, out, 5*time.Second)
		select {
		case data := <-gotReply:
			if string(data) != "echo:ping" {
				t.Fatalf("reply = %q", data)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no echo (handler reply deadlocked?)")
		}
	})
}

func TestNodePriorityExposed(t *testing.T) {
	eachNet(t, 6, func(t *testing.T, tn *testNet) {
		na, nb, col := tn.pair(t, Config{Port: 1}, Config{Port: 2})
		out, err := na.SendPriority(nb.Addr().String(), 2, []byte("urgent"), 9)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, out, 2*time.Second)
		deadline := time.Now().Add(time.Second)
		for col.len() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if col.get(0).Priority != 9 {
			t.Fatalf("priority = %d", col.get(0).Priority)
		}
	})
}

// TestNodeCloseMidTransfer: closing while a large message is in flight must
// not panic, deadlock, or leave goroutines stuck.
func TestNodeCloseMidTransfer(t *testing.T) {
	eachNet(t, 41, func(t *testing.T, tn *testNet) {
		if tn.mem != nil {
			tn.mem.Latency = 2 * time.Millisecond
		}
		na, nb, _ := tn.pair(t, Config{Port: 1, MSS: 600}, Config{Port: 2})
		dst := nb.Addr().String()
		big := make([]byte, 1<<20)
		if _, err := na.Send(dst, 2, big); err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * time.Millisecond) // transfer underway
		if err := na.Close(); err != nil {
			t.Fatal(err)
		}
		if err := nb.Close(); err != nil {
			t.Fatal(err)
		}
		// Further sends fail cleanly.
		if _, err := na.Send(dst, 2, []byte("x")); err == nil {
			t.Fatal("send after close succeeded")
		}
	})
}

// TestEveryQueuedPacketIsWritten: the engine queues packets under mu and the
// Node writes them when it lets go of mu, on whichever goroutine that is. So
// once the calls that queued packets have returned and the pair is idle,
// every packet either engine emitted has been written or counted as dropped
// — DatagramsOut + RingFullDrops + EncodeErrors == PktsSent + AcksSent on both
// nodes — whatever queued it: Send, Call, SendBlob, a timer (lost blob chunks,
// single-packet messages, come back only on a timeout) or a receive bracket
// (ACKs, the RPC reply).
func TestEveryQueuedPacketIsWritten(t *testing.T) {
	eachNet(t, 9, func(t *testing.T, tn *testNet) {
		tn.loss = 0.1
		var sink blobSink
		na, nb, _ := tn.pair(t, Config{Port: 1, MSS: 600}, Config{Port: 2, BlobPort: 50, OnBlob: sink.add})
		if err := nb.ServeRPC(3, func(_ string, req []byte) ([]byte, error) { return req, nil }); err != nil {
			t.Fatal(err)
		}
		dst := nb.Addr().String()
		out, err := na.Send(dst, 2, make([]byte, 6000))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, out, 10*time.Second)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := na.Call(ctx, dst, 3, []byte("ping")); err != nil {
			t.Fatalf("call: %v", err)
		}
		blob, err := na.SendBlob(dst, 50, make([]byte, 20<<10))
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-blob.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("blob never fully acknowledged")
		}
		if na.Stats().Timeouts == 0 {
			t.Fatal("no retransmission timer fired: the timer path went unexercised")
		}
		for name, n := range map[string]*Node{"source": na, "sink": nb} {
			var emitted, accounted uint64
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				st, ts := n.Stats(), n.tr.Stats()
				emitted, accounted = st.PktsSent+st.AcksSent, ts.DatagramsOut+ts.RingFullDrops+ts.EncodeErrors
				if emitted == accounted || time.Now().After(deadline) {
					break
				}
			}
			if emitted != accounted {
				t.Errorf("%s: the engine emitted %d packets, the transport wrote or dropped %d", name, emitted, accounted)
			}
		}
	})
}

func TestMemNetworkLatency(t *testing.T) {
	tn := &testNet{mem: NewMemNetwork(31)}
	tn.mem.Latency = 5 * time.Millisecond
	na, _, _ := tn.pair(t, Config{Port: 1}, Config{Port: 2})

	t0 := time.Now()
	out, err := na.Send("b", 2, []byte("delayed"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, out, 10*time.Second)
	// Data + ack each cross the injected 5ms latency.
	if rtt := time.Since(t0); rtt < 9*time.Millisecond {
		t.Fatalf("ack after %v despite 2x5ms injected latency", rtt)
	}
}

func TestNodeTraceDump(t *testing.T) {
	tn := &testNet{mem: NewMemNetwork(21)}
	na, nb, _ := tn.pair(t, Config{Port: 1, TraceEvents: 128}, Config{Port: 2})
	if nb.TraceDump() != "" {
		t.Fatal("trace dump without TraceEvents")
	}
	out, err := na.Send("b", 2, []byte("traced message"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, out, 5*time.Second)
	d := na.TraceDump()
	if !strings.Contains(d, "SEND") || !strings.Contains(d, "DONE") {
		t.Fatalf("trace dump missing events:\n%s", d)
	}
}

func ExampleNode() {
	mn := NewMemNetwork(1)
	pcServer, _ := mn.Listen("server")
	pcClient, _ := mn.Listen("client")

	done := make(chan struct{})
	server, _ := NewNode(pcServer, Config{Port: 7, OnMessage: func(m Message) {
		fmt.Printf("server got %q from %s\n", m.Data, m.From)
		close(done)
	}})
	defer server.Close()

	client, _ := NewNode(pcClient, Config{Port: 9})
	defer client.Close()

	msg, _ := client.Send("server", 7, []byte("hello MTP"))
	<-msg.Done()
	<-done
	// Output: server got "hello MTP" from client
}
