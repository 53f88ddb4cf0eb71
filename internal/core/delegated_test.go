package core

import (
	"testing"
	"time"

	"mtp/internal/wire"
)

// markAcksDelegated rewrites every outgoing ACK from the env as if an
// in-network device had spoofed it (the device vouches, not the receiver).
func markAcksDelegated(te *testEnv) {
	te.mutate = func(pkt *Outbound) {
		if pkt.Hdr.Type == wire.TypeAck {
			pkt.Hdr.Flags |= wire.FlagDelegatedAck
		}
	}
}

func TestDelegatedAckKeepsMessageResendableUntilRelease(t *testing.T) {
	var sentDone []*OutMessage
	w, a, _, _, eb := pair(1, us(10),
		Config{LocalPort: 1, DelegateTimeout: 50 * time.Millisecond,
			OnMessageSent: func(m *OutMessage) { sentDone = append(sentDone, m) }},
		Config{LocalPort: 2, OnMessage: func(*InMessage) {}},
	)
	markAcksDelegated(eb)

	m := a.Send("b", 2, []byte("delegated payload"), SendOptions{})
	w.eng.Run(5 * time.Millisecond)

	// The delegated ACK opened the window and was counted, but the message
	// must not complete: no end-to-end confirmation arrived.
	if a.Stats.DelegatedAcks == 0 {
		t.Fatal("no delegated ACKs recorded")
	}
	if m.Done() || len(sentDone) != 0 {
		t.Fatal("message completed on a provisional (delegated) ACK")
	}
	if a.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (resendable)", a.Pending())
	}

	// Application-level confirmation (the fallback host saw the result)
	// releases the retained state.
	if !a.Release(m) {
		t.Fatal("Release returned false")
	}
	if !m.Done() || len(sentDone) != 1 || a.Pending() != 0 {
		t.Fatalf("release did not complete the message: done=%v sent=%d pending=%d",
			m.Done(), len(sentDone), a.Pending())
	}
	if a.Stats.MsgsReleased != 1 {
		t.Fatalf("MsgsReleased = %d", a.Stats.MsgsReleased)
	}
	w.eng.Run(200 * time.Millisecond)
	if a.Stats.DelegateTimeouts != 0 {
		t.Fatalf("released message still hit delegate timeout (%d)", a.Stats.DelegateTimeouts)
	}
}

func TestDelegatedAckIgnoredWhenFeatureDisabled(t *testing.T) {
	w, a, _, _, eb := pair(2, us(10),
		Config{LocalPort: 1}, // DelegateTimeout zero: legacy semantics
		Config{LocalPort: 2, OnMessage: func(*InMessage) {}},
	)
	markAcksDelegated(eb)
	m := a.Send("b", 2, []byte("plain"), SendOptions{})
	w.eng.Run(5 * time.Millisecond)
	if !m.Done() || a.Pending() != 0 {
		t.Fatal("disabled sender should treat the flagged ACK as final")
	}
	if a.Stats.DelegatedAcks != 0 {
		t.Fatalf("DelegatedAcks = %d with feature disabled", a.Stats.DelegatedAcks)
	}
}

// TestDelegateTimeoutRetransmitsWithBypass models a device that spoofs the
// ACK, then crashes before forwarding: the sender's delegate timer must
// revert the packet and resend it flagged to bypass in-network compute.
func TestDelegateTimeoutRetransmitsWithBypass(t *testing.T) {
	var got []InMessage
	w, a, _, ea, _ := pair(3, us(10),
		Config{LocalPort: 1, RTO: 500 * time.Microsecond, DelegateTimeout: 2 * time.Millisecond},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { got = append(got, *m) }},
	)

	// The "device": consume first-attempt data packets and spoof a delegated
	// ACK back; packets flagged bypass sail through to the real receiver.
	ea.drop = func(pkt *Outbound) bool {
		if pkt.Hdr.Type != wire.TypeData || pkt.Hdr.Flags&wire.FlagBypassOffload != 0 {
			return false
		}
		ack := &wire.Header{
			Type: wire.TypeAck, SrcPort: pkt.Hdr.DstPort, DstPort: pkt.Hdr.SrcPort,
			Flags: wire.FlagDelegatedAck,
			SACK:  []wire.PacketRef{{MsgID: pkt.Hdr.MsgID, PktNum: pkt.Hdr.PktNum}},
		}
		in := &Inbound{From: "b", Hdr: ack}
		w.eng.Schedule(us(20), func() { ea.ep.OnPacket(in) })
		return true // consumed by the device; never reaches b
	}

	m := a.Send("b", 2, []byte("must survive the device crash"), SendOptions{})
	w.eng.Run(20 * time.Millisecond)

	if a.Stats.DelegatedAcks == 0 || a.Stats.DelegateTimeouts == 0 {
		t.Fatalf("delegated=%d timeouts=%d; want both > 0",
			a.Stats.DelegatedAcks, a.Stats.DelegateTimeouts)
	}
	if len(got) != 1 || string(got[0].Data) != "must survive the device crash" {
		t.Fatalf("delivered %d messages via bypass retransmit", len(got))
	}
	if !m.Done() {
		t.Fatal("end-to-end ACK after bypass retransmit did not complete the message")
	}
}

func TestAdaptiveRTOTracksRTTAndStaysClamped(t *testing.T) {
	cfg := Config{LocalPort: 1, RTO: 10 * time.Millisecond,
		MinRTO: 200 * time.Microsecond, MaxRTO: 50 * time.Millisecond}
	w, a, _, _, _ := pair(4, us(100), cfg,
		Config{LocalPort: 2, OnMessage: func(*InMessage) {}})

	for i := 0; i < 20; i++ {
		a.Send("b", 2, []byte("sample"), SendOptions{})
		w.eng.Run(w.eng.Now() + 2*time.Millisecond)
	}
	srtt, rto, ok := a.PeerRTT("b")
	if !ok || rto < cfg.MinRTO || rto > cfg.MaxRTO {
		t.Fatalf("rto %v outside [%v, %v]", rto, cfg.MinRTO, cfg.MaxRTO)
	}
	// Path RTT is ~200µs + ack-delay; the 10ms configured initial value must
	// have converged down to a small multiple of the measured RTT.
	if rto >= cfg.RTO {
		t.Fatalf("rto %v did not adapt below initial %v", rto, cfg.RTO)
	}
	if srtt == 0 {
		t.Fatal("no RTT samples folded into SRTT")
	}
}

func TestAdaptiveRTOBacksOffUnderLoss(t *testing.T) {
	w, a, _, ea, _ := pair(5, us(10),
		Config{LocalPort: 1, RTO: 300 * time.Microsecond, MinRTO: 75 * time.Microsecond, MaxRTO: 2 * time.Millisecond},
		Config{LocalPort: 2, OnMessage: func(*InMessage) {}})
	ea.drop = func(pkt *Outbound) bool { return pkt.Hdr.Type == wire.TypeData }

	a.Send("b", 2, []byte("never arrives"), SendOptions{})
	w.eng.Run(30 * time.Millisecond)

	if a.Stats.RTOBackoffs < 2 {
		t.Fatalf("RTOBackoffs = %d, want repeated exponential backoff", a.Stats.RTOBackoffs)
	}
	if _, rto, _ := a.PeerRTT("b"); rto != 2*time.Millisecond {
		t.Fatalf("rto = %v, want capped at MaxRTO", rto)
	}
}

// TestFixedRTOWhenAdaptiveDisabled: a config that sets only RTO pins floor
// and ceiling to it, so the timeout stays at RTO through RTT samples and
// through timeouts, and never backs off.
func TestFixedRTOWhenAdaptiveDisabled(t *testing.T) {
	const rto = 700 * time.Microsecond
	w, a, _, ea, _ := pair(6, us(50),
		Config{LocalPort: 1, RTO: rto},
		Config{LocalPort: 2, OnMessage: func(*InMessage) {}})
	for i := 0; i < 5; i++ {
		a.Send("b", 2, []byte("x"), SendOptions{})
	}
	w.eng.Run(10 * time.Millisecond)
	if srtt, got, ok := a.PeerRTT("b"); !ok || srtt == 0 || got != rto {
		t.Fatalf("after samples: srtt %v rto %v ok %v, want a sample and rto %v", srtt, got, ok, rto)
	}
	ea.drop = func(*Outbound) bool { return true }
	a.Send("b", 2, []byte("lost"), SendOptions{})
	w.eng.Run(w.eng.Now() + 10*time.Millisecond)
	if _, got, _ := a.PeerRTT("b"); a.Stats.Timeouts == 0 || got != rto {
		t.Fatalf("after %d timeouts: rto %v, want %v", a.Stats.Timeouts, got, rto)
	}
	if a.Stats.RTOBackoffs != 0 {
		t.Fatalf("RTOBackoffs = %d with floor == ceiling", a.Stats.RTOBackoffs)
	}
}
