package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mtp/internal/cc"
	"mtp/internal/wire"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestSingleMessageRoundTrip(t *testing.T) {
	var got []InMessage
	var sentDone []*OutMessage
	w, a, _, _, _ := pair(1, us(10),
		Config{LocalPort: 100, OnMessageSent: func(m *OutMessage) { sentDone = append(sentDone, m) }},
		Config{LocalPort: 200, OnMessage: func(m *InMessage) { got = append(got, *m) }},
	)
	data := []byte("hello, in-network world")
	m := a.Send("b", 200, data, SendOptions{Priority: 3})
	w.eng.Run(10 * time.Millisecond)

	if len(got) != 1 {
		t.Fatalf("delivered %d messages", len(got))
	}
	in := got[0]
	if !bytes.Equal(in.Data, data) {
		t.Fatalf("data = %q", in.Data)
	}
	if in.SrcPort != 100 || in.DstPort != 200 || in.MsgID != m.ID || in.Pri != 3 {
		t.Fatalf("metadata = %+v", in)
	}
	if in.From.(string) != "a" {
		t.Fatalf("from = %v", in.From)
	}
	if len(sentDone) != 1 || sentDone[0] != m || !m.Done() {
		t.Fatal("sender completion not signalled")
	}
	if a.Pending() != 0 {
		t.Fatalf("pending = %d", a.Pending())
	}
}

func TestMultiPacketMessageIntegrity(t *testing.T) {
	var got []InMessage
	w, a, _, _, _ := pair(2, us(5),
		Config{LocalPort: 1, MSS: 1000},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { got = append(got, *m) }},
	)
	data := make([]byte, 100*1000+137) // 101 packets, ragged tail
	r := rand.New(rand.NewSource(7))
	r.Read(data)
	a.Send("b", 2, data, SendOptions{})
	w.eng.Run(100 * time.Millisecond)

	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if !bytes.Equal(got[0].Data, data) {
		t.Fatal("reassembled data corrupt")
	}
	if got[0].Size != len(data) {
		t.Fatalf("size = %d", got[0].Size)
	}
}

func TestSyntheticMessage(t *testing.T) {
	var got []InMessage
	w, a, b, _, _ := pair(3, us(5),
		Config{LocalPort: 1},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { got = append(got, *m) }},
	)
	a.SendSynthetic("b", 2, 1<<20, SendOptions{})
	w.eng.Run(500 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if got[0].Data != nil || got[0].Size != 1<<20 {
		t.Fatalf("synthetic delivery = size %d data %v", got[0].Size, got[0].Data != nil)
	}
	if b.Stats.MsgsDelivered != 1 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestLossRecoveryViaNack(t *testing.T) {
	var got []InMessage
	w, a, _, ea, _ := pair(4, us(5),
		Config{LocalPort: 1, MSS: 1000, RTO: time.Millisecond},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { got = append(got, *m) }},
	)
	n := 0
	ea.drop = func(pkt *Outbound) bool {
		if pkt.Hdr.Type != wire.TypeData {
			return false
		}
		n++
		return n%7 == 3 && pkt.Hdr.PktNum != pkt.Hdr.MsgPkts-1 // drop mid-message packets
	}
	data := make([]byte, 50*1000)
	rand.New(rand.NewSource(1)).Read(data)
	a.Send("b", 2, data, SendOptions{})
	w.eng.Run(200 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if !bytes.Equal(got[0].Data, data) {
		t.Fatal("data corrupt after loss recovery")
	}
	if a.Stats.PktsRetx == 0 {
		t.Fatal("no retransmissions recorded")
	}
	if a.Stats.NacksReceived == 0 {
		t.Fatal("loss recovered without NACKs (expected fast path)")
	}
}

func TestLossRecoveryViaRTOOnly(t *testing.T) {
	var got []InMessage
	w, a, _, ea, eb := pair(5, us(5),
		Config{LocalPort: 1, MSS: 1000, RTO: 500 * time.Microsecond},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { got = append(got, *m) }},
	)
	// Every ACK that carries a NACK is lost, so only the RTO can recover.
	eb.drop = func(pkt *Outbound) bool { return len(pkt.Hdr.NACK) > 0 }
	n := 0
	ea.drop = func(pkt *Outbound) bool {
		if pkt.Hdr.Type != wire.TypeData {
			return false
		}
		n++
		return n%5 == 2
	}
	data := make([]byte, 20*1000)
	rand.New(rand.NewSource(2)).Read(data)
	a.Send("b", 2, data, SendOptions{})
	w.eng.Run(time.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if !bytes.Equal(got[0].Data, data) {
		t.Fatal("data corrupt")
	}
	if a.Stats.Timeouts == 0 || a.Stats.NacksReceived != 0 {
		t.Fatalf("timeouts %d, NACKs received %d: expected RTO-driven recovery", a.Stats.Timeouts, a.Stats.NacksReceived)
	}
}

func TestAckLossCausesDuplicateSuppression(t *testing.T) {
	var got []InMessage
	w, a, b, _, eb := pair(6, us(5),
		Config{LocalPort: 1, MSS: 1000, RTO: 500 * time.Microsecond},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { got = append(got, *m) }},
	)
	n := 0
	eb.drop = func(pkt *Outbound) bool {
		n++
		return n%3 != 0 // drop two thirds of acks
	}
	data := make([]byte, 10*1000)
	rand.New(rand.NewSource(3)).Read(data)
	a.Send("b", 2, data, SendOptions{})
	w.eng.Run(time.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d times", len(got))
	}
	if !bytes.Equal(got[0].Data, data) {
		t.Fatal("data corrupt")
	}
	if b.Stats.PktsDuplicate == 0 {
		t.Fatal("expected duplicate data from ack loss")
	}
	if a.Pending() != 0 {
		t.Fatal("sender never completed")
	}
}

func TestPrioritySchedulingUnderTinyWindow(t *testing.T) {
	var order []uint64
	w, a, _, _, _ := pair(7, us(50),
		Config{LocalPort: 1, MSS: 1000, CCConfig: ccTiny()},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { order = append(order, m.MsgID) }},
	)
	low := a.SendSynthetic("b", 2, 30*1000, SendOptions{Priority: 0})
	high := a.SendSynthetic("b", 2, 5*1000, SendOptions{Priority: 9})
	w.eng.Run(time.Second)
	if len(order) != 2 {
		t.Fatalf("delivered %d", len(order))
	}
	if order[0] != high.ID || order[1] != low.ID {
		t.Fatalf("completion order = %v (high=%d low=%d)", order, high.ID, low.ID)
	}
}

func TestMutationSinglePacket(t *testing.T) {
	var got []InMessage
	w, a, _, ea, _ := pair(8, us(5),
		Config{LocalPort: 1},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { got = append(got, *m) }},
	)
	// An in-network "compressor" halves the payload of every data packet.
	ea.mutate = func(pkt *Outbound) {
		if pkt.Hdr.Type != wire.TypeData || pkt.Data == nil {
			return
		}
		half := len(pkt.Data) / 2
		pkt.Data = pkt.Data[:half]
		pkt.Hdr.PktLen = uint16(half)
		pkt.Hdr.MsgBytes = uint32(half)
		pkt.Size = pkt.Hdr.EncodedLen() + half
	}
	a.Send("b", 2, []byte("0123456789abcdef"), SendOptions{})
	w.eng.Run(10 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if string(got[0].Data) != "01234567" {
		t.Fatalf("mutated data = %q", got[0].Data)
	}
	// The sender still completes: acknowledgements are per (msg, pkt), not
	// per byte — the property TCP's sequence numbers lack.
	if a.Pending() != 0 {
		t.Fatal("sender did not complete after mutation")
	}
}

func TestPathletFeedbackBuildsState(t *testing.T) {
	w, a, _, ea, _ := pair(9, us(5),
		Config{LocalPort: 1, MSS: 1000},
		Config{LocalPort: 2},
	)
	path := wire.PathTC{PathID: 77, TC: 0}
	ea.stampECN = func(pkt *Outbound) (wire.PathTC, bool, bool) {
		return path, false, true
	}
	a.SendSynthetic("b", 2, 100*1000, SendOptions{})
	w.eng.Run(100 * time.Millisecond)
	st, ok := a.Table().Lookup(path)
	if !ok {
		t.Fatal("pathlet state not created from feedback")
	}
	if a.Table().Current().Path != path {
		t.Fatalf("current pathlet = %v", a.Table().Current().Path)
	}
	// Clean path: window should have grown beyond initial.
	if st.Algo.Window() <= 10*1000 {
		t.Fatalf("window = %v", st.Algo.Window())
	}
}

func TestMarkedPathletShrinksOnlyItself(t *testing.T) {
	w, a, _, ea, _ := pair(10, us(5),
		Config{LocalPort: 1, MSS: 1000},
		Config{LocalPort: 2},
	)
	good := wire.PathTC{PathID: 1}
	bad := wire.PathTC{PathID: 2}
	use := good
	ea.stampECN = func(pkt *Outbound) (wire.PathTC, bool, bool) {
		return use, use == bad, true
	}
	a.SendSynthetic("b", 2, 200*1000, SendOptions{})
	w.eng.Run(20 * time.Millisecond)
	use = bad
	a.SendSynthetic("b", 2, 200*1000, SendOptions{})
	w.eng.Run(200 * time.Millisecond)

	gw := a.Table().Get(good).Algo.Window()
	bw := a.Table().Get(bad).Algo.Window()
	if bw >= gw {
		t.Fatalf("marked pathlet window %v not below clean %v", bw, gw)
	}
}

// TestAckBatching: a receiver whose arrivals come in brackets of up to eight
// packets sends fewer ACK packets than it receives data packets.
func TestAckBatching(t *testing.T) {
	var got []InMessage
	w, a, b, _, eb := pair(11, us(5),
		Config{LocalPort: 1, MSS: 1000},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { got = append(got, *m) }},
	)
	eb.bracket = func() int { return 8 }
	a.SendSynthetic("b", 2, 64*1000, SendOptions{})
	w.eng.Run(100 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if b.Stats.AcksSent >= b.Stats.PktsReceived {
		t.Fatalf("acks=%d pkts=%d: batching ineffective", b.Stats.AcksSent, b.Stats.PktsReceived)
	}
}

func TestReceiverGC(t *testing.T) {
	w := newWorld(12)
	env := w.env("r", 0)
	var got []InMessage
	ep := NewEndpoint(env, Config{LocalPort: 2,
		OnMessage: func(m *InMessage) { got = append(got, *m) }})
	env.ep = ep

	// Inject 1 of 2 packets of a message, then let time pass.
	hdr := &wire.Header{
		Type: wire.TypeData, SrcPort: 9, DstPort: 2, MsgID: 5,
		MsgBytes: 2000, MsgPkts: 2, PktNum: 0, PktLen: 1000,
	}
	ep.OnPacket(&Inbound{From: "x", Hdr: hdr, Data: make([]byte, 1000)})
	if len(ep.inflows) != 1 {
		t.Fatalf("inflows = %d", len(ep.inflows))
	}
	w.eng.Run(receiveTimeout)
	ep.OnTimer(w.eng.Now())
	if len(ep.inflows) != 1 {
		t.Fatal("GC too eager")
	}
	w.eng.Run(receiveTimeout + time.Millisecond)
	ep.OnTimer(w.eng.Now())
	if len(ep.inflows) != 0 {
		t.Fatal("stale inflow not collected")
	}
	if len(got) != 0 {
		t.Fatal("partial message delivered")
	}
}

func TestTrimmedPacketNacked(t *testing.T) {
	var got []InMessage
	w, a, b, ea, _ := pair(13, us(5),
		Config{LocalPort: 1, MSS: 1000, RTO: 10 * time.Millisecond},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { got = append(got, *m) }},
	)
	// Trim the third data packet once.
	trimmed := false
	ea.trim = func(pkt *Outbound) bool {
		if pkt.Hdr.PktNum == 2 && !trimmed {
			trimmed = true
			return true
		}
		return false
	}
	data := make([]byte, 10*1000)
	rand.New(rand.NewSource(5)).Read(data)
	a.Send("b", 2, data, SendOptions{})
	w.eng.Run(time.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if !bytes.Equal(got[0].Data, data) {
		t.Fatal("data corrupt after trim recovery")
	}
	if b.Stats.NacksSent == 0 || a.Stats.NacksReceived == 0 {
		t.Fatal("trim did not trigger NACK fast path")
	}
}

// TestGapNackedOnFirstSighting: a hole is NACKed on the first later arrival.
func TestGapNackedOnFirstSighting(t *testing.T) {
	var got []InMessage
	w, a, b, ea, _ := pair(62, us(5),
		Config{LocalPort: 1, MSS: 1000, RTO: 5 * time.Millisecond},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { got = append(got, *m) }},
	)
	dropped := false
	ea.drop = func(pkt *Outbound) bool {
		if pkt.Hdr.Type == wire.TypeData && pkt.Hdr.PktNum == 3 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	a.SendSynthetic("b", 2, 20*1000, SendOptions{})
	w.eng.Run(20 * time.Millisecond)
	if len(got) != 1 {
		t.Fatal("not delivered")
	}
	if b.Stats.NacksSent == 0 {
		t.Fatal("immediate NACK did not fire")
	}
	// Recovery far below the RTO: the NACK path drove it.
	if got[0].Complete > 2*time.Millisecond {
		t.Fatalf("completion at %v", got[0].Complete)
	}
}

// ccTiny returns a CC config with a deliberately tiny max window so
// scheduling tests exercise queueing.
func ccTiny() cc.Config {
	return cc.Config{InitWindow: 2000, MaxWindow: 2000}
}

// TestQuickReliableDelivery: random sizes, loss rates and delays — every
// message is delivered exactly once with intact content.
func TestQuickReliableDelivery(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var got []InMessage
		w, a, _, ea, eb := pair(seed, time.Duration(1+r.Intn(20))*time.Microsecond,
			Config{LocalPort: 1, MSS: 500 + r.Intn(1500), RTO: 300 * time.Microsecond},
			Config{LocalPort: 2, OnMessage: func(m *InMessage) { got = append(got, *m) }},
		)
		lossPct := r.Intn(20)
		dropRand := rand.New(rand.NewSource(seed + 1))
		dropFn := func(pkt *Outbound) bool { return dropRand.Intn(100) < lossPct }
		ea.drop = dropFn
		eb.drop = dropFn

		nMsgs := 1 + r.Intn(5)
		payloads := make([][]byte, nMsgs)
		for i := range payloads {
			payloads[i] = make([]byte, 1+r.Intn(20000))
			r.Read(payloads[i])
			a.Send("b", 2, payloads[i], SendOptions{Priority: uint8(r.Intn(4))})
		}
		w.eng.Run(2 * time.Second)
		if len(got) != nMsgs {
			return false
		}
		seen := map[uint64]bool{}
		for _, m := range got {
			if seen[m.MsgID] {
				return false // duplicate delivery
			}
			seen[m.MsgID] = true
			if !bytes.Equal(m.Data, payloads[m.MsgID-1]) {
				return false
			}
		}
		if a.Pending() != 0 {
			return false
		}
		// Conservation: once everything is acknowledged, no pathlet may
		// still hold in-flight attribution (leaks here would slowly choke
		// the window).
		for _, st := range a.Table().States() {
			if st.Inflight != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
