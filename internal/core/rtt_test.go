package core

import (
	"testing"
	"time"

	"mtp/internal/wire"
)

// nearFar builds a sender "a" with two sinks: "near" 100 µs away one way and
// "far" 10 ms away. The far path wobbles by up to a millisecond as a real one
// does: the harness's delays are otherwise exact, and an estimator fed a
// constant RTT converges onto it (RTTVAR decays to zero and RFC 6298's clock
// granularity term is not modelled), so the timer ties with the ACK.
func nearFar(seed int64, cfg Config) (*testWorld, *Endpoint, *testEnv) {
	w := newWorld(seed)
	ea := w.env("a", us(100))
	ea.jitter = func(pkt *Outbound) time.Duration {
		if pkt.Dst == "far" {
			return 10*time.Millisecond - us(100) + time.Duration(w.eng.Rand().Int63n(int64(time.Millisecond)))
		}
		return 0
	}
	ea.ep = NewEndpoint(ea, cfg)
	for name, delay := range map[string]time.Duration{"near": us(100), "far": 10 * time.Millisecond} {
		te := w.env(name, delay)
		te.ep = NewEndpoint(te, Config{LocalPort: 2, Epoch: cfg.Epoch, OnMessage: func(*InMessage) {}})
	}
	return w, ea.ep, ea
}

var nearFarCfg = Config{LocalPort: 1, RTO: 50 * time.Millisecond,
	MinRTO: time.Millisecond, MaxRTO: 50 * time.Millisecond}

// sendEvery schedules n one-packet messages to dst, one per gap.
func sendEvery(w *testWorld, a *Endpoint, dst string, n int, gap time.Duration) {
	for i := 0; i < n; i++ {
		w.eng.Schedule(time.Duration(i)*gap, func() { a.Send(dst, 2, []byte("x"), SendOptions{}) })
	}
}

// One endpoint, a 200 µs peer and a 20 ms peer, both busy at once: each gets
// the timeout its own RTT calls for. An estimator shared by the two floors on
// the near peer's samples and resends everything bound for the far one.
func TestAdaptiveRTOIsPerPeer(t *testing.T) {
	w, a, _ := nearFar(1, nearFarCfg)
	sendEvery(w, a, "near", 200, time.Millisecond)
	sendEvery(w, a, "far", 200, 25*time.Millisecond)
	w.eng.Run(6 * time.Second)

	if a.Stats.MsgsCompleted != 400 {
		t.Fatalf("completed %d of 400 messages", a.Stats.MsgsCompleted)
	}
	if a.Stats.PktsRetx != 0 || a.Stats.Timeouts != 0 {
		t.Fatalf("lossless network, yet %d retransmissions after %d timeouts",
			a.Stats.PktsRetx, a.Stats.Timeouts)
	}
	srtt, rto, ok := a.PeerRTT("far")
	if !ok || srtt < 20*time.Millisecond || rto <= srtt {
		t.Fatalf("far peer: srtt %v rto %v ok %v, want rto above the 20 ms RTT", srtt, rto, ok)
	}
	srtt, rto, ok = a.PeerRTT("near")
	if !ok || srtt > 250*time.Microsecond || rto != nearFarCfg.MinRTO {
		t.Fatalf("near peer: srtt %v rto %v ok %v, want the %v floor", srtt, rto, ok, nearFarCfg.MinRTO)
	}
	if _, _, ok := a.PeerRTT("nobody"); ok {
		t.Fatal("PeerRTT invented an estimator for a peer never sent to")
	}
}

// A timeout round doubles the timeout of the peer whose packets expired and
// of nobody else.
func TestBackoffTouchesOnlyTheTimedOutPeer(t *testing.T) {
	w, a, ea := nearFar(2, nearFarCfg)
	sendEvery(w, a, "near", 300, time.Millisecond)
	sendEvery(w, a, "far", 10, 25*time.Millisecond)
	w.eng.Run(time.Second)
	_, farRTO, _ := a.PeerRTT("far")
	if farRTO >= nearFarCfg.MaxRTO {
		t.Fatalf("far rto %v already at the ceiling: nothing left to back off", farRTO)
	}

	ea.drop = func(pkt *Outbound) bool { return pkt.Dst == "far" }
	sendEvery(w, a, "near", 50, time.Millisecond)
	a.Send("far", 2, []byte("lost"), SendOptions{})
	w.eng.Run(w.eng.Now() + 200*time.Millisecond)

	if a.Stats.RTOBackoffs == 0 {
		t.Fatal("no backoff after a blackholed peer timed out")
	}
	if _, rto, _ := a.PeerRTT("far"); rto != nearFarCfg.MaxRTO {
		t.Fatalf("far rto %v, want backed off to the %v ceiling", rto, nearFarCfg.MaxRTO)
	}
	if _, rto, _ := a.PeerRTT("near"); rto != nearFarCfg.MinRTO {
		t.Fatalf("near rto %v moved off the %v floor by the far peer's timeouts", rto, nearFarCfg.MinRTO)
	}
}

// One peer restarting resets that peer's estimator, not the others'.
func TestPeerRestartKeepsOtherPeersRTO(t *testing.T) {
	cfg := nearFarCfg
	cfg.Epoch = 7
	w, a, _ := nearFar(3, cfg)
	sendEvery(w, a, "near", 300, time.Millisecond)
	sendEvery(w, a, "far", 10, 25*time.Millisecond)
	w.eng.Run(time.Second)
	nearSRTT, nearRTO, _ := a.PeerRTT("near")
	if _, farRTO, _ := a.PeerRTT("far"); farRTO == cfg.RTO || nearRTO == cfg.RTO {
		t.Fatalf("estimators did not warm up: near %v far %v", nearRTO, farRTO)
	}

	a.OnPacket(&Inbound{From: "far", Hdr: &wire.Header{Type: wire.TypeAck, Epoch: 8}})
	if a.Stats.EpochBumps != 1 {
		t.Fatalf("EpochBumps = %d, want 1", a.Stats.EpochBumps)
	}
	if srtt, rto, ok := a.PeerRTT("far"); !ok || srtt != 0 || rto != cfg.RTO {
		t.Fatalf("restarted peer: srtt %v rto %v, want a fresh estimator at %v", srtt, rto, cfg.RTO)
	}
	if srtt, rto, _ := a.PeerRTT("near"); srtt != nearSRTT || rto != nearRTO {
		t.Fatalf("other peer: srtt %v rto %v, want %v %v untouched", srtt, rto, nearSRTT, nearRTO)
	}
}

// A send at the instant the pending timer is due keeps that deadline: the
// firing on its way is not pushed one RTO later.
func TestSendAtDueInstantKeepsTimer(t *testing.T) {
	env := &recEnv{}
	ep := NewEndpoint(env, Config{LocalPort: 1, RTO: time.Millisecond})
	ep.Send("peer", 2, []byte("x"), SendOptions{})
	due := env.timerAt
	if due != time.Millisecond {
		t.Fatalf("first send armed the timer at %v, want %v", due, time.Millisecond)
	}
	env.now = due
	ep.Send("peer", 2, []byte("y"), SendOptions{})
	if ep.Stats.PktsSent != 2 {
		t.Fatalf("sent %d packets, want 2", ep.Stats.PktsSent)
	}
	if env.timerAt != due {
		t.Fatalf("send at the due instant moved the timer from %v to %v", due, env.timerAt)
	}
}
