package core

import (
	"slices"
	"testing"
	"time"

	"mtp/internal/pathlet"
	"mtp/internal/wire"
)

// policyEnv is the network and clock of FuzzPathletPolicy's lone sender: it
// keeps the data packets sent since the last check and the one armed timer,
// and the fuzz body fires that timer as it moves the clock.
type policyEnv struct {
	now     time.Duration
	timerAt time.Duration
	data    []policyPkt
}

// policyPkt is what FuzzPathletPolicy checks of one data packet.
type policyPkt struct {
	ref     wire.PacketRef
	exclude []wire.PathTC
}

func (pe *policyEnv) Now() time.Duration { return pe.now }

func (pe *policyEnv) SetTimer(at time.Duration) { pe.timerAt = at }

// Output keeps each data packet's identity and a copy of its exclude list:
// the endpoint reuses the header.
func (pe *policyEnv) Output(p *Outbound) {
	if p.Hdr.Type == wire.TypeData {
		ref := wire.PacketRef{MsgID: p.Hdr.MsgID, PktNum: p.Hdr.PktNum}
		pe.data = append(pe.data, policyPkt{ref, slices.Clone(p.Hdr.PathExclude)})
	}
}

// pathEvents records the pathlet events of the exclusion state machine in
// events, and the message and packet events the sender's checks read in pkts.
type pathEvents struct{ events, pkts []Event }

func (r *pathEvents) Observe(_ *Endpoint, ev *Event) {
	switch ev.Kind {
	case KindExclude, KindUnexclude, KindFailover, KindProbe, KindReadmit:
		r.events = append(r.events, *ev)
	case KindQueued, KindRetransmit, KindComplete, KindEpochBump:
		r.pkts = append(r.pkts, *ev)
	}
}

// pktView is what checkPackets reads of one packet of an active message:
// whether its bytes count in its pathlet's in-flight window, whether it waits
// for its resend (counted in its message's lost), and whether it is finally
// acknowledged.
type pktView struct{ attributed, queued, acked bool }

func viewPkt(p *outPkt) pktView {
	return pktView{attributed: p.attributed(), queued: p.state == pktLost, acked: p.state == pktAcked}
}

// checkPackets checks the sender's packet accounting: every pathlet's
// Inflight is the bytes of the attributed packets on it, and 0 when no
// message is active; a queued packet is attributed; lost counts a message's
// queued packets and ackedPkts its acknowledged ones.
func checkPackets(t *testing.T, e *Endpoint) {
	t.Helper()
	inflight := map[wire.PathTC]int{}
	for _, m := range e.active {
		queued, acked := 0, 0
		for i := range m.pkts {
			p := &m.pkts[i]
			v := viewPkt(p)
			if v.attributed {
				inflight[p.path] += int(p.length)
			}
			if v.queued && !v.attributed {
				t.Fatalf("msg %d pkt %d: queued, not attributed", m.ID, i)
			}
			if v.queued {
				queued++
			}
			if v.acked {
				acked++
			}
		}
		if queued != m.lost {
			t.Fatalf("msg %d: %d packets queued, lost %d", m.ID, queued, m.lost)
		}
		if acked != m.ackedPkts {
			t.Fatalf("msg %d: %d packets acknowledged, ackedPkts %d", m.ID, acked, m.ackedPkts)
		}
	}
	for _, st := range e.Table().States() {
		if st.Inflight != inflight[st.Path] {
			t.Fatalf("pathlet %v: Inflight %d, attributed packets hold %d", st.Path, st.Inflight, inflight[st.Path])
		}
		if len(e.active) == 0 && st.Inflight != 0 {
			t.Fatalf("pathlet %v: Inflight %d with no message active", st.Path, st.Inflight)
		}
		delete(inflight, st.Path)
	}
	if len(inflight) != 0 {
		t.Fatalf("packets attributed to unknown pathlets %v", inflight)
	}
}

// policyPathlets are the three pathlets FuzzPathletPolicy's feedback names.
var policyPathlets = [3]wire.PathTC{{PathID: 1}, {PathID: 2, TC: 1}, {PathID: 3}}

// FuzzPathletPolicy is a model-based test of the two exclusion policies, the
// auto-exclude window and failover, alone and together, and of the sender's
// per-packet state under them. mode%3 picks auto-exclude alone, failover
// alone, or both; delegated ACKs and peer epochs are on in every mode. The
// script is two bytes per step, an operation (mod 10) and its argument:
//
//	0, 1  an ACK carrying 1..32 ECN (0) or trim (1) feedback entries for one
//	      pathlet, marked or not
//	2     proof of life: an ACK acknowledging every packet sent so far, with
//	      delay feedback for one pathlet
//	3     a timeout round: the clock jumps to the armed timer, which fires
//	      (the retransmissions go out on the predicted pathlet)
//	4     the clock advances, firing every timer due on the way
//	5     a send of a 1..4-packet message, whose first packet goes out as a
//	      probe when a dead pathlet is due
//	6     a NACK of one unacknowledged packet
//	7     a delegated ACK (wire.FlagDelegatedAck) of the unacknowledged
//	      packets the argument's low seven bits pick
//	8     Release of the oldest pending message
//	9     an ACK stamped with a newer peer epoch: the peer restarted
//
// A 6 or 7 with the argument's top bit set arrives inside a receive batch
// (BeginBatch), as a Node delivers a burst: the ACKs that follow join it and
// the sends they release wait until a 3, 4, 5 or 8, or the script's end,
// closes the batch (EndBatch).
//
// After every call into the endpoint it checks that a pathlet is excluded
// exactly while failover holds it dead or an auto-exclusion covers it; that
// ExcludeList is sorted and equals a walk over States(); that a dead pathlet
// leaves the list only through feedback naming it; that every Exclude,
// Unexclude, Failover and Readmit event matches a change of the policies'
// state, and the counters count them; and that every data packet carries the
// exclude list, less one dead pathlet when it is that pathlet's probe, and
// none leaves inside a receive batch. Of the sender's packets it checks the
// accounting checkPackets reads; that every message completes exactly once,
// when it leaves the active list; and that no retransmission names a packet
// finally acknowledged since the last peer restart.
// Run with `go test -fuzz=FuzzPathletPolicy ./internal/core`.
func FuzzPathletPolicy(f *testing.F) {
	// Auto-exclude alone: pathlets 1 and 2 heard from, 1 marked through a
	// whole window, the exclusion expiring on a later ACK.
	f.Add(byte(0), []byte{4, 0, 0, 0x01, 0, 0xfc, 5, 0, 4, 120, 0, 0x01})
	// Pathlet 2 excluded, then pathlet 1 trimmed through a whole window: it
	// stays admitted, the only healthy alternative being excluded.
	f.Add(byte(0), []byte{4, 0, 0, 0x00, 0, 0xfd, 5, 0, 4, 40, 1, 0xfc, 5, 0})
	// Failover alone: pathlet 1 predicted, a send timing out twice declares
	// it dead and fails over to pathlet 2; the clock reaches the probe
	// deadline, the probe goes out and pathlet 1's feedback readmits it.
	f.Add(byte(1), []byte{4, 0, 0, 0x01, 0, 0x00, 5, 0, 3, 0, 3, 0, 2, 1, 4, 60, 5, 0, 2, 0})
	// Pathlets 1 and 2 both die, in that order, and are probed in that
	// order: a dead pathlet's probe deadline is kept in declaration order.
	f.Add(byte(1), []byte{4, 0, 0, 0x02, 0, 0x01, 0, 0x00, 5, 0, 3, 0, 3, 0, 3, 0, 3, 0, 2, 2, 4, 60, 5, 0, 5, 0, 2, 0, 2, 1})
	// Both policies: pathlet 1 is auto-excluded, then dies; its
	// auto-exclusion expires on an ACK naming pathlet 2, and pathlet 1 stays
	// excluded because it is still dead.
	f.Add(byte(2), []byte{4, 0, 0, 0x01, 0, 0xfc, 5, 0, 3, 0, 3, 0, 2, 1, 4, 80, 0, 0x01})
	// Both policies: pathlet 1 is auto-excluded, then dies, then its
	// feedback readmits it; it stays excluded until the auto-exclusion
	// expires.
	f.Add(byte(2), []byte{4, 0, 0, 0x01, 0, 0xfc, 5, 0, 3, 0, 3, 0, 2, 1, 2, 0, 4, 80, 0, 0x01})
	// A NACKed packet is delegated in the same receive batch, before its
	// resend goes out; its delegate deadline then expires and it goes out
	// again, and a final ACK completes the message.
	f.Add(byte(0), []byte{5, 1, 6, 0x81, 7, 0x82, 4, 40, 4, 40, 2, 0})
	// A delegated ACK goes unconfirmed: the packets time out on the
	// delegate deadline and go out again with the bypass flag, then a final
	// ACK completes the message.
	f.Add(byte(0), []byte{5, 2, 7, 0x05, 4, 40, 4, 40, 2, 0})
	// Failover with a delegated packet on the dead pathlet: one message is
	// delegated, the other times out twice and kills pathlet 2, and the
	// delegated one waits on its own deadline.
	f.Add(byte(1), []byte{4, 0, 0, 0x00, 0, 0x01, 5, 0, 5, 0, 7, 0x01, 3, 0, 3, 0, 4, 60, 2, 1})
	// The peer restarts mid-transfer, inside a receive batch holding one
	// packet NACKed and one delegated: the message is rewound and sent
	// again, times out, and is released; a second message completes across
	// a second restart.
	f.Add(byte(2), []byte{5, 3, 6, 0x81, 7, 0x84, 9, 0, 3, 0, 8, 0, 5, 0, 9, 0, 2, 0})

	f.Fuzz(runPolicy)
}

// runPolicy plays one FuzzPathletPolicy script.
func runPolicy(t *testing.T, mode byte, script []byte) {
	const maxSteps = 128
	if len(script) > 2*maxSteps {
		script = script[:2*maxSteps]
	}
	cfg := Config{LocalPort: 1, Epoch: 1, MSS: 1000, RTO: time.Millisecond, ProbeInterval: 2 * time.Millisecond,
		DelegateTimeout: 3 * time.Millisecond}
	switch mode % 3 {
	case 0:
		cfg.AutoExclude = true
	case 1:
		cfg.FailoverRTOs = 2
	default:
		cfg.AutoExclude, cfg.FailoverRTOs = true, 2
	}
	rec := &pathEvents{}
	cfg.Observer = rec
	env := &policyEnv{}
	e := NewEndpoint(env, cfg)
	var sent []wire.PacketRef // data packets not yet acknowledged
	peerEpoch := uint32(1)    // stamped on every ACK
	// completions counts KindComplete per message; finalAcked holds the
	// packets finally acknowledged since the last peer restart.
	completions := map[uint64]int{}
	finalAcked := map[wire.PacketRef]bool{}

	// call runs one entry into the endpoint and checks the step; named
	// is the pathlet the call's feedback names, if any.
	call := func(named *wire.PathTC, run func()) {
		t.Helper()
		type snap struct {
			dead bool
			auto bool
		}
		before := make(map[wire.PathTC]snap)
		deadListed := map[wire.PathTC]bool{}
		for _, st := range e.Table().States() {
			before[st.Path] = snap{st.Dead, st.AutoExcludedUntil != 0}
			if st.Dead && st.Excluded {
				deadListed[st.Path] = true
			}
		}
		stats := e.Stats
		rec.events = rec.events[:0]
		rec.pkts = rec.pkts[:0]
		env.data = env.data[:0]
		run()

		if e.inBatch && len(env.data) > 0 {
			t.Fatalf("%d data packets sent inside a receive batch", len(env.data))
		}
		checkPackets(t, e)
		var retx []wire.PacketRef
		for _, ev := range rec.pkts {
			switch ev.Kind {
			case KindQueued:
				completions[ev.Msg] += 0
			case KindComplete:
				completions[ev.Msg]++
			case KindEpochBump:
				clear(finalAcked)
			case KindRetransmit:
				ref := wire.PacketRef{MsgID: ev.Msg, PktNum: ev.Pkt}
				if finalAcked[ref] {
					t.Fatalf("retransmission of %v, finally acknowledged", ref)
				}
				retx = append(retx, ref)
			}
		}
		for _, m := range e.active {
			for i := range m.pkts {
				if viewPkt(&m.pkts[i]).acked {
					finalAcked[wire.PacketRef{MsgID: m.ID, PktNum: uint32(i)}] = true
				}
			}
		}
		for _, ref := range retx {
			if finalAcked[ref] {
				t.Fatalf("retransmission of %v, finally acknowledged in the same call", ref)
			}
		}
		for id, n := range completions {
			want := 1
			if e.lookup(id) != nil {
				want = 0
			}
			if n != want {
				t.Fatalf("msg %d: completed %d times, %d expected", id, n, want)
			}
			if n > 0 && slices.ContainsFunc(retx, func(r wire.PacketRef) bool { return r.MsgID == id }) {
				t.Fatalf("retransmission of completed msg %d", id)
			}
		}

		list := e.Table().ExcludeList()
		var walk []wire.PathTC
		for _, st := range e.Table().States() {
			if st.Excluded != (st.Dead || st.AutoExcludedUntil != 0) {
				t.Fatalf("pathlet %v: excluded %v, dead %v, auto-excluded until %v", st.Path, st.Excluded, st.Dead, st.AutoExcludedUntil)
			}
			if st.Excluded {
				walk = append(walk, st.Path)
			}
		}
		if !slices.Equal(list, walk) {
			t.Fatalf("ExcludeList %v, walk over States %v", list, walk)
		}
		for p := range deadListed {
			if !slices.Contains(list, p) && (named == nil || *named != p) {
				t.Fatalf("dead pathlet %v left the exclude list without feedback naming it", p)
			}
		}

		// Replay the events over the state before the call: each must
		// be a change, and together they must reach the state after.
		model := before
		var probes []wire.PathTC
		for _, ev := range rec.events {
			s := model[ev.Path] // zero for a pathlet first heard of in this call
			switch ev.Kind {
			case KindExclude:
				if s.auto {
					t.Fatalf("exclusion of %v already auto-excluded", ev.Path)
				}
				s.auto = true
			case KindUnexclude:
				if !s.auto {
					t.Fatalf("unexclusion of %v not auto-excluded", ev.Path)
				}
				s.auto = false
			case KindFailover:
				if s.dead {
					t.Fatalf("failover of dead %v", ev.Path)
				}
				s.dead = true
			case KindReadmit:
				if !s.dead {
					t.Fatalf("readmission of live %v", ev.Path)
				}
				s.dead = false
			case KindProbe:
				if !s.dead {
					t.Fatalf("probe of live %v", ev.Path)
				}
				probes = append(probes, ev.Path)
			}
			model[ev.Path] = s
		}
		for _, st := range e.Table().States() {
			if got, want := model[st.Path], (snap{st.Dead, st.AutoExcludedUntil != 0}); got != want {
				t.Fatalf("pathlet %v: events lead to %+v, state is %+v", st.Path, got, want)
			}
		}
		count := func(k Kind) uint64 {
			n := uint64(0)
			for _, ev := range rec.events {
				if ev.Kind == k {
					n++
				}
			}
			return n
		}
		if e.Stats.Exclusions-stats.Exclusions != count(KindExclude) ||
			e.Stats.Failovers-stats.Failovers != count(KindFailover) ||
			e.Stats.Readmissions-stats.Readmissions != count(KindReadmit) ||
			e.Stats.ProbesSent-stats.ProbesSent != count(KindProbe) {
			t.Fatalf("counters moved %d/%d/%d/%d for events %v", e.Stats.Exclusions-stats.Exclusions,
				e.Stats.Failovers-stats.Failovers, e.Stats.Readmissions-stats.Readmissions,
				e.Stats.ProbesSent-stats.ProbesSent, rec.events)
		}

		// Every data packet carries the list; a probe omits its pathlet.
		for _, pkt := range env.data {
			got := pkt.exclude
			sent = append(sent, pkt.ref)
			if slices.Equal(got, list) {
				continue
			}
			if len(probes) == 0 || !slices.Equal(got, slices.DeleteFunc(slices.Clone(list), func(p wire.PathTC) bool { return p == probes[0] })) {
				t.Fatalf("data packet excludes %v, list %v, probes %v", got, list, probes)
			}
			probes = probes[1:]
		}
		if len(probes) != 0 {
			t.Fatalf("probes %v went out on no packet", probes)
		}
	}

	// send delivers one ACK from the peer; named is the pathlet its
	// feedback names. An ACK without feedback credits what it acknowledges
	// to pathlet.DefaultPath.
	send := func(named wire.PathTC, hdr wire.Header) {
		hdr.Type, hdr.SrcPort, hdr.DstPort, hdr.Epoch = wire.TypeAck, 2, 1, peerEpoch
		in := &Inbound{From: "b", Hdr: &hdr}
		call(&named, func() { e.OnPacket(in) })
	}
	ack := func(named wire.PathTC, fb []wire.Feedback, sack []wire.PacketRef) {
		send(named, wire.Header{AckPathFeedback: fb, SACK: sack})
	}
	endBatch := func() {
		if e.inBatch {
			call(nil, e.EndBatch)
		}
	}
	fire := func() {
		call(nil, func() {
			env.timerAt = 0
			e.OnTimer(env.now)
		})
	}

	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%10, script[i+1]
		p := policyPathlets[int(arg)%len(policyPathlets)]
		switch {
		case op == 3 || op == 4 || op == 5 || op == 8:
			endBatch()
		case (op == 6 || op == 7) && arg&0x80 != 0 && !e.inBatch:
			e.BeginBatch()
		}
		switch op {
		case 0, 1:
			fb := wire.ECNFeedback(p, arg&4 != 0)
			if op == 1 {
				fb = wire.TrimFeedback(p, 1000)
			}
			entries := make([]wire.Feedback, 1+int(arg>>3))
			for j := range entries {
				entries[j] = fb
			}
			ack(p, entries, nil)
		case 2:
			fb := []wire.Feedback{wire.DelayFeedback(p, uint64(arg)*1000)}
			ack(p, fb, sent)
			sent = nil
		case 3:
			if env.timerAt != 0 {
				env.now = max(env.now, env.timerAt)
				fire()
			}
		case 4:
			until := env.now + time.Duration(1+int(arg))*50*time.Microsecond
			for n := 0; n < 16 && env.timerAt != 0 && env.timerAt <= until; n++ {
				env.now = max(env.now, env.timerAt)
				fire()
			}
			env.now = until
		case 5:
			call(nil, func() { e.SendSynthetic("b", 2, 1000*(1+int(arg)%4), SendOptions{}) })
		case 6:
			if len(sent) > 0 {
				send(pathlet.DefaultPath, wire.Header{NACK: []wire.PacketRef{sent[int(arg&0x7f)%len(sent)]}})
			}
		case 7:
			var sack []wire.PacketRef
			for j, ref := range sent {
				if arg&(1<<(j%7)) != 0 {
					sack = append(sack, ref)
				}
			}
			send(pathlet.DefaultPath, wire.Header{Flags: wire.FlagDelegatedAck, SACK: sack})
		case 8:
			if len(e.active) > 0 {
				m := e.active[0]
				call(nil, func() { e.Release(m) })
			}
		case 9:
			peerEpoch++
			send(pathlet.DefaultPath, wire.Header{})
		}
	}
	endBatch()
}
