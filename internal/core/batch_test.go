package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"mtp/internal/wire"
)

// recEnv is a hand-driven Env that records every emitted header.
type recEnv struct {
	now     time.Duration
	timerAt time.Duration
	out     []*wire.Header
}

func (r *recEnv) Now() time.Duration       { return r.now }
func (r *recEnv) Output(pkt *Outbound)     { r.out = append(r.out, pkt.Hdr.Clone()) }
func (r *recEnv) SetTimer(t time.Duration) { r.timerAt = t }

// take returns the headers emitted since the last call.
func (r *recEnv) take() []*wire.Header {
	out := r.out
	r.out = nil
	return out
}

// dataPkt is packet pn of a 64-byte-MSS message of npkts packets from peer
// port 7 to local port 9.
func dataPkt(msgID uint64, pn, npkts int) *Inbound {
	return &Inbound{
		From: "peer",
		Hdr: &wire.Header{
			Type: wire.TypeData, SrcPort: 7, DstPort: 9,
			MsgID: msgID, MsgBytes: uint32(npkts * 64), MsgPkts: uint32(npkts),
			PktNum: uint32(pn), PktOffset: uint32(pn * 64), PktLen: 64,
		},
		Data: make([]byte, 64),
	}
}

func refs(msgID uint64, pns ...uint32) []wire.PacketRef {
	out := make([]wire.PacketRef, len(pns))
	for i, pn := range pns {
		out[i] = wire.PacketRef{MsgID: msgID, PktNum: pn}
	}
	return out
}

func sameRefs(a, b []wire.PacketRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func receiver(cfg Config) (*recEnv, *Endpoint, *int) {
	env := &recEnv{}
	delivered := new(int)
	cfg.LocalPort, cfg.MSS, cfg.RTO = 9, 64, time.Millisecond
	cfg.OnMessage = func(*InMessage) { *delivered++ }
	return env, NewEndpoint(env, cfg), delivered
}

// A message that completes inside a bracket is delivered at once but
// acknowledged once, at EndBatch, with every packet in the one ACK.
func TestBatchCompletionInsideBracket(t *testing.T) {
	env, ep, delivered := receiver(Config{})
	ep.BeginBatch()
	for pn := 0; pn < 3; pn++ {
		ep.OnPacket(dataPkt(1, pn, 3))
	}
	if *delivered != 1 {
		t.Fatalf("delivered %d messages inside the bracket, want 1", *delivered)
	}
	if got := env.take(); len(got) != 0 {
		t.Fatalf("%d packets emitted inside the bracket", len(got))
	}
	ep.EndBatch()
	got := env.take()
	if len(got) != 1 || !sameRefs(got[0].SACK, refs(1, 0, 1, 2)) || len(got[0].NACK) != 0 {
		t.Fatalf("EndBatch emitted %v, want one ACK with SACK 1:{0,1,2}", got)
	}
	if ep.Stats.AcksSent != 1 || len(ep.ackOrder) != 0 {
		t.Fatalf("AcksSent=%d pending=%d", ep.Stats.AcksSent, len(ep.ackOrder))
	}
}

// A retransmission of a delivered message arriving inside a bracket is
// re-acked in the bracket's ACK and not delivered again.
func TestBatchDuplicateReackInsideBracket(t *testing.T) {
	env, ep, delivered := receiver(Config{})
	ep.OnPacket(dataPkt(1, 0, 1))
	env.take()

	ep.BeginBatch()
	ep.OnPacket(dataPkt(1, 0, 1)) // duplicate of the delivered message
	ep.OnPacket(dataPkt(2, 0, 2)) // fresh data behind it
	ep.EndBatch()
	got := env.take()
	want := append(refs(1, 0), refs(2, 0)...)
	if len(got) != 1 || !sameRefs(got[0].SACK, want) {
		t.Fatalf("EndBatch emitted %v, want one ACK with SACK %v", got, want)
	}
	if *delivered != 1 || ep.Stats.PktsDuplicate != 1 {
		t.Fatalf("delivered=%d duplicates=%d", *delivered, ep.Stats.PktsDuplicate)
	}
}

// A hole seen inside a bracket is NACKed in the bracket's ACK.
func TestBatchHoleNackedAtEndBatch(t *testing.T) {
	env, ep, _ := receiver(Config{})
	ep.BeginBatch()
	ep.OnPacket(dataPkt(1, 0, 4))
	ep.OnPacket(dataPkt(1, 2, 4))
	if got := env.take(); len(got) != 0 {
		t.Fatalf("%d packets emitted inside the bracket", len(got))
	}
	ep.EndBatch()
	got := env.take()
	if len(got) != 1 || !sameRefs(got[0].SACK, refs(1, 0, 2)) || !sameRefs(got[0].NACK, refs(1, 1)) {
		t.Fatalf("EndBatch emitted %v, want SACK 1:{0,2} NACK 1:{1}", got)
	}
}

// collectNacks scans up to the highest packet received, not to the one that
// just arrived: packets 0-5 of a message, 5 arrives first, 2 more than half an
// RTO later, and the second NACK lists every hole again, 3 and 4 included,
// in ascending order.
func TestGapNackScansToHighWaterMark(t *testing.T) {
	env, ep, _ := receiver(Config{})
	ep.OnPacket(dataPkt(1, 5, 6))
	if got := env.take(); len(got) != 1 || !sameRefs(got[0].NACK, refs(1, 0, 1, 2, 3, 4)) {
		t.Fatalf("first sighting emitted %v, want NACK 1:{0,1,2,3,4}", got)
	}
	env.now += ep.cfg.RTO/2 + time.Microsecond
	ep.OnPacket(dataPkt(1, 2, 6))
	if got := env.take(); len(got) != 1 || !sameRefs(got[0].NACK, refs(1, 0, 1, 3, 4)) {
		t.Fatalf("late packet emitted %v, want NACK 1:{0,1,3,4}", got)
	}
}

// An empty bracket, and an EndBatch without a BeginBatch, do nothing.
func TestBatchEmptyBracketIsNoOp(t *testing.T) {
	env, ep, _ := receiver(Config{})
	ep.EndBatch()
	ep.BeginBatch()
	ep.EndBatch()
	if len(env.out) != 0 || env.timerAt != 0 || ep.Stats != (EndpointStats{}) {
		t.Fatalf("empty bracket had effects: out=%d timer=%v stats=%+v", len(env.out), env.timerAt, ep.Stats)
	}
}

// ACK packets arriving inside a bracket open the window but nothing is
// transmitted until EndBatch, which sends once for all of them.
func TestBatchSenderSendsOnceAtEndBatch(t *testing.T) {
	env := &recEnv{}
	ep := NewEndpoint(env, Config{LocalPort: 7, MSS: 64, RTO: time.Millisecond})
	ep.SendSynthetic("peer", 9, 64*200, SendOptions{})
	first := env.take() // the initial window
	if len(first) < 3 || len(first) == 200 {
		t.Fatalf("initial window sent %d packets", len(first))
	}
	ep.BeginBatch()
	for _, h := range first[:3] {
		ack := &wire.Header{Type: wire.TypeAck, SrcPort: 9, DstPort: 7, SACK: refs(h.MsgID, h.PktNum)}
		ep.OnPacket(&Inbound{From: "peer", Hdr: ack})
	}
	if got := env.take(); len(got) != 0 {
		t.Fatalf("%d packets transmitted inside the bracket", len(got))
	}
	ep.EndBatch()
	if got := env.take(); len(got) < 3 {
		t.Fatalf("EndBatch transmitted %d packets for 3 acknowledged", len(got))
	}
}

// TestBatchBoundariesInvisible runs one lossy, duplicating, reordering
// transfer per seed twice — unbracketed, and with the receiver and the sender
// each cutting their arrivals into brackets of random size 1..32 — and checks
// that bracketing is invisible to the application: every message completes,
// is delivered exactly once with its bytes intact, no ack batch stays pending
// after EndBatch, and the bracketed receiver sends no more ACK packets.
func TestBatchBoundariesInvisible(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		plain := runBracketed(t, seed, false)
		cut := runBracketed(t, seed, true)
		if cut > plain {
			t.Errorf("seed %d: bracketed receiver sent %d ACK packets, unbracketed %d", seed, cut, plain)
		}
		t.Logf("seed %d: ACK packets %d unbracketed, %d bracketed", seed, plain, cut)
	}
}

// runBracketed returns the number of ACK packets the receiver sent.
func runBracketed(t *testing.T, seed int64, bracketed bool) uint64 {
	t.Helper()
	faults := rand.New(rand.NewSource(seed))
	deliveries := make(map[uint64]int)
	delivered := make(map[uint64][]byte)
	w, a, b, ea, eb := pair(seed, 50*time.Microsecond,
		Config{LocalPort: 1, RTO: 2 * time.Millisecond},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) {
			deliveries[m.MsgID]++
			delivered[m.MsgID] = append([]byte(nil), m.Data...)
		}},
	)
	ea.drop = func(*Outbound) bool { return faults.Float64() < 0.03 }
	ea.dup = func(*Outbound) bool { return faults.Float64() < 0.02 }
	ea.jitter = func(*Outbound) time.Duration { return time.Duration(faults.Int63n(int64(40 * time.Microsecond))) }
	eb.drop = func(*Outbound) bool { return faults.Float64() < 0.01 }
	eb.dup = func(*Outbound) bool { return faults.Float64() < 0.01 }
	if bracketed {
		sizes := rand.New(rand.NewSource(seed + 100))
		for _, te := range []*testEnv{ea, eb} {
			te.bracket = func() int { return 1 + sizes.Intn(32) }
			te.afterBracket = func() {
				if n := len(te.ep.ackOrder); n != 0 {
					t.Fatalf("seed %d: %d ack batches pending after EndBatch", seed, n)
				}
			}
		}
	}

	payloads := rand.New(rand.NewSource(seed + 200))
	want := make(map[uint64][]byte)
	for i := 0; i < 24; i++ {
		data := make([]byte, 2<<10+payloads.Intn(60<<10))
		payloads.Read(data)
		want[a.Send("b", 2, data, SendOptions{}).ID] = data
	}
	w.eng.Run(2 * time.Second)

	if got := a.Stats.MsgsCompleted; got != uint64(len(want)) {
		t.Fatalf("seed %d bracketed=%v: sender completed %d/%d messages", seed, bracketed, got, len(want))
	}
	if len(delivered) != len(want) {
		t.Fatalf("seed %d bracketed=%v: %d messages delivered, want %d", seed, bracketed, len(delivered), len(want))
	}
	for id, data := range want {
		if deliveries[id] != 1 || !bytes.Equal(delivered[id], data) {
			t.Fatalf("seed %d bracketed=%v: message %d delivered %d times, %d/%d bytes",
				seed, bracketed, id, deliveries[id], len(delivered[id]), len(data))
		}
	}
	return b.Stats.AcksSent
}
