package core

import (
	"testing"
	"time"

	"mtp/internal/wire"
)

// TestEpochStamping checks that configured epochs ride every outgoing packet
// and that peers record each other's incarnation on first contact.
func TestEpochStamping(t *testing.T) {
	w, a, b, _, _ := pair(1, 10*time.Microsecond,
		Config{LocalPort: 1, Epoch: 5},
		Config{LocalPort: 2, Epoch: 9, OnMessage: func(m *InMessage) {}})
	m := a.Send("b", 2, []byte("hello epoch"), SendOptions{})
	w.eng.Run(10 * time.Millisecond)
	if !m.Done() {
		t.Fatal("message did not complete")
	}
	if got := b.peers["a"].epoch; got != 5 {
		t.Fatalf("b recorded epoch %d for a, want 5", got)
	}
	if got := a.peers["b"].epoch; got != 9 {
		t.Fatalf("a recorded epoch %d for b, want 9", got)
	}
	if a.Stats.EpochBumps != 0 || b.Stats.EpochBumps != 0 {
		t.Fatal("spurious epoch bump on steady-state traffic")
	}
}

// TestEpochZeroDisablesGate checks that a zero-epoch endpoint stamps no epoch
// and ignores incoming ones (the simulator's configuration stays untouched).
func TestEpochZeroDisablesGate(t *testing.T) {
	env := &captureEnv{}
	ep := NewEndpoint(env, Config{LocalPort: 1})
	ep.Send("peer", 2, []byte("x"), SendOptions{})
	if len(env.pkts) == 0 {
		t.Fatal("no packet emitted")
	}
	if env.pkts[0].Hdr.Epoch != 0 {
		t.Fatalf("zero-epoch endpoint stamped epoch %d", env.pkts[0].Hdr.Epoch)
	}
	// Epoch-carrying packets pass the (disabled) gate and never record state.
	ep.OnPacket(&Inbound{From: "peer", Hdr: &wire.Header{Type: wire.TypeData, Epoch: 77, MsgID: 1, MsgPkts: 1, PktLen: 1}})
	if ep.peers["peer"].epoch != 0 {
		t.Fatal("disabled gate recorded a peer epoch")
	}
	if ep.Stats.StaleEpochDrops != 0 {
		t.Fatal("disabled gate dropped a packet")
	}
}

// TestStaleEpochDropped checks that a packet from a dead incarnation is
// discarded without touching protocol state.
func TestStaleEpochDropped(t *testing.T) {
	env := &captureEnv{}
	delivered := 0
	ep := NewEndpoint(env, Config{LocalPort: 2, Epoch: 1, OnMessage: func(m *InMessage) { delivered++ }})
	data := func(epoch uint32, msgID uint64) *Inbound {
		return &Inbound{From: "peer", Hdr: &wire.Header{
			Type: wire.TypeData, SrcPort: 1, DstPort: 2, Epoch: epoch,
			MsgID: msgID, MsgBytes: 1, MsgPkts: 1, PktLen: 1,
		}, Data: []byte("x")}
	}
	ep.OnPacket(data(100, 1))
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	ep.OnPacket(data(99, 2)) // straggler from the previous incarnation
	if delivered != 1 {
		t.Fatalf("stale-epoch packet delivered (delivered = %d)", delivered)
	}
	if ep.Stats.StaleEpochDrops != 1 {
		t.Fatalf("StaleEpochDrops = %d, want 1", ep.Stats.StaleEpochDrops)
	}
	if ep.Stats.PktsReceived != 1 {
		t.Fatalf("PktsReceived = %d, want 1 (stale packet counted)", ep.Stats.PktsReceived)
	}
}

// TestEpochBumpResetsReceiverState checks the receiver-side reset: a restarted
// sender's reused message IDs must not be suppressed by the dead incarnation's
// duplicate state, and its half-reassembled messages must be discarded.
func TestEpochBumpResetsReceiverState(t *testing.T) {
	env := &captureEnv{}
	delivered := 0
	ep := NewEndpoint(env, Config{LocalPort: 2, Epoch: 1, OnMessage: func(m *InMessage) { delivered++ }})
	mk := func(epoch uint32, msgID uint64, pkts, pktNum uint32) *Inbound {
		return &Inbound{From: "peer", Hdr: &wire.Header{
			Type: wire.TypeData, SrcPort: 1, DstPort: 2, Epoch: epoch,
			MsgID: msgID, MsgBytes: pkts, MsgPkts: pkts, PktNum: pktNum,
			PktOffset: pktNum, PktLen: 1,
		}, Data: []byte("x")}
	}
	// Incarnation 10: message 1 completes, message 2 stays half-reassembled.
	ep.OnPacket(mk(10, 1, 1, 0))
	ep.OnPacket(mk(10, 2, 2, 0))
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if len(ep.inflows) != 1 {
		t.Fatalf("inflows = %d, want 1", len(ep.inflows))
	}
	// Incarnation 11 reuses message ID 1 from scratch.
	ep.OnPacket(mk(11, 1, 1, 0))
	if ep.Stats.EpochBumps != 1 {
		t.Fatalf("EpochBumps = %d, want 1", ep.Stats.EpochBumps)
	}
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 (reused ID suppressed by stale dedup state)", delivered)
	}
	if len(ep.inflows) != 0 {
		t.Fatalf("stale partial reassembly survived the bump: inflows = %d", len(ep.inflows))
	}
	// The dead incarnation's unfinished message 2 must not complete from a
	// late second packet: its first packet died with the old incarnation.
	ep.OnPacket(mk(11, 2, 2, 1))
	if delivered != 2 {
		t.Fatal("half message completed across incarnations")
	}
}

// TestSenderRecoversAcrossPeerRestart is the end-to-end restart scenario in
// virtual time: the receiver endpoint is replaced mid-message by a fresh
// incarnation with a newer epoch. The sender must detect the bump from the
// new incarnation's first ACK, rewind the partially-acknowledged message, and
// complete it against the new incarnation — which delivers it exactly once.
func TestSenderRecoversAcrossPeerRestart(t *testing.T) {
	w := newWorld(3)
	ea := w.env("a", 50*time.Microsecond)
	eb := w.env("b", 50*time.Microsecond)
	deliveries := 0
	a := NewEndpoint(ea, Config{LocalPort: 1, Epoch: 100, RTO: time.Millisecond})
	b1 := NewEndpoint(eb, Config{LocalPort: 2, Epoch: 200, OnMessage: func(m *InMessage) { deliveries++ }})
	ea.ep = a
	eb.ep = b1

	m := a.SendSynthetic("b", 2, 400*1460, SendOptions{})
	// Let part of the message flow, then crash-restart the receiver.
	w.eng.Run(250 * time.Microsecond)
	if m.Done() {
		t.Fatal("message finished before the restart point")
	}
	b2 := NewEndpoint(eb, Config{LocalPort: 2, Epoch: 201, OnMessage: func(m *InMessage) { deliveries++ }})
	eb.ep = b2

	w.eng.Run(100 * time.Millisecond)
	if !m.Done() {
		t.Fatal("message did not complete against the restarted receiver")
	}
	if a.Stats.EpochBumps != 1 {
		t.Fatalf("sender EpochBumps = %d, want 1", a.Stats.EpochBumps)
	}
	if deliveries != 1 {
		t.Fatalf("deliveries = %d, want exactly 1 (in the new incarnation)", deliveries)
	}
	if b2.Stats.MsgsDelivered != 1 {
		t.Fatalf("new incarnation delivered %d messages, want 1", b2.Stats.MsgsDelivered)
	}
	// The rewind must leave in-flight attribution balanced: with nothing
	// outstanding, every pathlet's inflight is zero.
	for _, st := range a.Table().States() {
		if st.Inflight != 0 {
			t.Fatalf("pathlet %v inflight = %d after completion, want 0", st.Path, st.Inflight)
		}
	}
}

// TestEpochBumpOnOldIncarnationData checks a sender-side stale drop: data the
// dead incarnation had in flight arrives after the new incarnation was seen.
func TestEpochBumpOnOldIncarnationData(t *testing.T) {
	env := &captureEnv{}
	ep := NewEndpoint(env, Config{LocalPort: 2, Epoch: 1, OnMessage: func(m *InMessage) {}})
	ack := func(epoch uint32) *Inbound {
		return &Inbound{From: "peer", Hdr: &wire.Header{
			Type: wire.TypeAck, SrcPort: 1, DstPort: 2, Epoch: epoch,
			SACK: []wire.PacketRef{{MsgID: 1, PktNum: 0}},
		}}
	}
	ep.OnPacket(ack(50))
	ep.OnPacket(ack(51)) // restart detected on an ACK path too
	if ep.Stats.EpochBumps != 1 {
		t.Fatalf("EpochBumps = %d, want 1", ep.Stats.EpochBumps)
	}
	ep.OnPacket(ack(50))
	if ep.Stats.StaleEpochDrops != 1 {
		t.Fatalf("StaleEpochDrops = %d, want 1", ep.Stats.StaleEpochDrops)
	}
}

// TestPeerRestartKeepsOtherPeersReceiveState checks that a restart of one
// peer resets only that peer's receive side. Peers A and B each have one
// delivered and one half-received message; A's epoch bumps inside a batch
// bracket in which both had data acknowledged. B's half message must still
// complete, B's delivered ID must still be suppressed, and B's pending ACK
// must still leave at EndBatch while A's is dropped.
func TestPeerRestartKeepsOtherPeersReceiveState(t *testing.T) {
	env := &captureEnv{}
	var got []*InMessage
	ep := NewEndpoint(env, Config{LocalPort: 2, Epoch: 1, OnMessage: func(m *InMessage) { got = append(got, m) }})
	epochs := map[string]uint32{"A": 10, "B": 20}
	data := func(from string, msgID uint64, pkts, pktNum uint32) *Inbound {
		return &Inbound{From: from, Hdr: &wire.Header{
			Type: wire.TypeData, SrcPort: 1, DstPort: 2, Epoch: epochs[from],
			MsgID: msgID, MsgBytes: pkts, MsgPkts: pkts, PktNum: pktNum,
			PktOffset: pktNum, PktLen: 1,
		}, Data: []byte("x")}
	}
	for _, from := range []string{"A", "B"} {
		ep.OnPacket(data(from, 1, 1, 0)) // delivered
		ep.OnPacket(data(from, 2, 2, 0)) // half received
	}
	if len(got) != 2 || len(ep.inflows) != 2 {
		t.Fatalf("delivered %d, partial %d; want 2 and 2", len(got), len(ep.inflows))
	}

	env.pkts = nil
	ep.BeginBatch()
	ep.OnPacket(data("A", 3, 2, 0))
	ep.OnPacket(data("B", 3, 2, 0))
	epochs["A"] = 11 // A restarts; its first packet is an empty ACK
	ep.OnPacket(&Inbound{From: "A", Hdr: &wire.Header{Type: wire.TypeAck, SrcPort: 1, DstPort: 2, Epoch: 11}})
	if ep.Stats.EpochBumps != 1 {
		t.Fatalf("EpochBumps = %d, want 1", ep.Stats.EpochBumps)
	}
	ep.EndBatch()
	if len(env.pkts) != 1 || env.pkts[0].Dst != "B" || !sameRefs(env.pkts[0].Hdr.SACK, refs(3, 0)) {
		t.Fatalf("EndBatch emitted %d packets (first %+v), want B's ACK with SACK 3:{0}", len(env.pkts), env.pkts)
	}
	for _, f := range ep.inflowOrder {
		if f.key.peer.addr != "B" {
			t.Fatalf("A's partial message %d survived its restart", f.key.msgID)
		}
	}

	ep.OnPacket(data("B", 2, 2, 1))
	if n := len(got); n != 3 || got[2].From != "B" || got[2].MsgID != 2 {
		t.Fatalf("B's half message did not complete across A's restart (%d delivered)", n)
	}
	dups := ep.Stats.PktsDuplicate
	ep.OnPacket(data("B", 1, 1, 0))
	if len(got) != 3 || ep.Stats.PktsDuplicate != dups+1 {
		t.Fatalf("B's delivered message 1 was not suppressed (delivered %d)", len(got))
	}
}
