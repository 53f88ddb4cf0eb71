package core

import (
	"testing"
	"time"

	"mtp/internal/wire"
)

// recorder is a test Observer that keeps every event, minus the pointers
// that are valid only during the call. It checks in passing that each
// pointer kind carries its pointer.
type recorder struct {
	t      *testing.T
	events []Event
}

func (r *recorder) Observe(_ *Endpoint, ev *Event) {
	if r.t != nil {
		ok := true
		switch ev.Kind {
		case KindQueued:
			ok = ev.Out != nil
		case KindDeliver:
			ok = ev.In != nil
		case KindPathletUpdated:
			ok = ev.State != nil && ev.State.Path == ev.Path
		}
		if !ok {
			r.t.Errorf("%v event without its object", ev.Kind)
		}
	}
	rec := *ev
	rec.Out, rec.In, rec.State = nil, nil, nil
	r.events = append(r.events, rec)
}

func (r *recorder) count(k Kind) int {
	n := 0
	for i := range r.events {
		if r.events[i].Kind == k {
			n++
		}
	}
	return n
}

// lossyRun sends one 30-packet message over a link that drops every ninth
// data packet, the first transmission of the last packet (only its timeout
// recovers it) and duplicates every seventh.
func lossyRun(t *testing.T, snd, rcv *recorder) {
	var got int
	w, a, _, ea, _ := pair(51, us(5),
		Config{LocalPort: 1, MSS: 1000, RTO: time.Millisecond, Observer: snd},
		Config{LocalPort: 2, Observer: rcv, OnMessage: func(*InMessage) { got++ }},
	)
	n, lastSent := 0, false
	ea.drop = func(pkt *Outbound) bool {
		if pkt.Hdr.Type != wire.TypeData {
			return false
		}
		n++
		if pkt.Hdr.PktNum == pkt.Hdr.MsgPkts-1 {
			first := !lastSent
			lastSent = true
			return first
		}
		return n%9 == 4
	}
	ea.dup = func(pkt *Outbound) bool { return pkt.Hdr.Type == wire.TypeData && n%7 == 0 }
	a.SendSynthetic("b", 2, 30*1000, SendOptions{})
	w.eng.Run(100 * time.Millisecond)
	if got != 1 {
		t.Fatalf("delivered %d", got)
	}
}

// failoverRun blackholes pathlet 1 from 1 ms to 10 ms while a trickle of
// messages keeps the sender busy: it declares the pathlet dead, probes it,
// and readmits it on the probe's feedback.
func failoverRun(t *testing.T, snd *recorder) {
	path1, path2 := wire.PathTC{PathID: 1}, wire.PathTC{PathID: 2}
	w, a, _, ea, _ := pair(52, 20*time.Microsecond,
		Config{LocalPort: 1, MSS: 1000, RTO: time.Millisecond, FailoverRTOs: 2,
			ProbeInterval: 2 * time.Millisecond, Observer: snd},
		Config{LocalPort: 2},
	)
	routeVia := func(pkt *Outbound) wire.PathTC {
		if pkt.Hdr.Excludes(path1) {
			return path2
		}
		return path1
	}
	ea.drop = func(pkt *Outbound) bool {
		now := w.eng.Now()
		return routeVia(pkt) == path1 && now >= time.Millisecond && now < 10*time.Millisecond
	}
	ea.stampECN = func(pkt *Outbound) (wire.PathTC, bool, bool) { return routeVia(pkt), false, true }
	// The trickle runs in step with the RTO: a Send lands at the very instant
	// each timeout is due, and the due deadline must stay put for the
	// blackholed packets to time out at all.
	for at := time.Duration(0); at < 20*time.Millisecond; at += 500 * time.Microsecond {
		w.eng.ScheduleAt(at, func() { a.SendSynthetic("b", 2, 4000, SendOptions{}) })
	}
	w.eng.Run(100 * time.Millisecond)
	if a.Stats.Failovers == 0 || a.Stats.Readmissions == 0 || a.Pending() != 0 {
		t.Fatalf("failovers %d, readmissions %d, %d messages pending", a.Stats.Failovers, a.Stats.Readmissions, a.Pending())
	}
}

// excludeRun marks every other packet's pathlet until 3 ms, so the
// auto-exclude policy excludes it, and then stops, so the exclusion expires.
func excludeRun(t *testing.T, snd *recorder) {
	w, a, _, ea, _ := pair(53, us(5),
		Config{LocalPort: 1, MSS: 1000, Observer: snd, AutoExclude: true},
		Config{LocalPort: 2},
	)
	good, bad := wire.PathTC{PathID: 1}, wire.PathTC{PathID: 2}
	i := 0
	ea.stampECN = func(pkt *Outbound) (wire.PathTC, bool, bool) {
		i++
		if i%2 == 0 && w.eng.Now() < 3*time.Millisecond {
			return bad, true, true
		}
		return good, false, true
	}
	for at := time.Duration(0); at < 10*time.Millisecond; at += 300 * time.Microsecond {
		w.eng.ScheduleAt(at, func() { a.SendSynthetic("b", 2, 50*1000, SendOptions{}) })
	}
	w.eng.Run(30 * time.Millisecond)
	if a.Stats.Exclusions == 0 || a.Pending() != 0 {
		t.Fatalf("exclusions %d, %d messages pending", a.Stats.Exclusions, a.Pending())
	}
}

// epochRun feeds a receiver one packet from a peer's incarnation 10 and then
// one from its incarnation 11.
func epochRun(rcv *recorder) {
	ep := NewEndpoint(&captureEnv{}, Config{LocalPort: 2, Epoch: 1, Observer: rcv})
	for _, epoch := range []uint32{10, 11} {
		ep.OnPacket(&Inbound{From: "peer", Hdr: &wire.Header{
			Type: wire.TypeData, SrcPort: 1, DstPort: 2, Epoch: epoch,
			MsgID: 1, MsgBytes: 1, MsgPkts: 1, PktLen: 1,
		}, Data: []byte("x")})
	}
}

// TestTraceRecordsProtocolEvents: loss recovery, failover, auto-exclusion
// and a peer restart between them emit every kind, each carrying the object
// its kind needs.
func TestTraceRecordsProtocolEvents(t *testing.T) {
	snd, rcv := &recorder{t: t}, &recorder{t: t}
	lossyRun(t, snd, rcv)
	for k, side := range map[Kind]*recorder{
		KindQueued: snd, KindSendData: snd, KindRetransmit: snd, KindRecvAck: snd,
		KindNackIn: snd, KindComplete: snd, KindTimeout: snd, KindPathletUpdated: snd,
		KindRecvData: rcv, KindDupData: rcv, KindSendAck: rcv, KindNackOut: rcv,
	} {
		if side.count(k) == 0 {
			t.Errorf("lossy run emitted no %v", k)
		}
	}
	if snd.count(KindComplete) != 1 || rcv.count(KindDeliver) != 1 {
		t.Errorf("%d DONE, %d DLVR; want one each", snd.count(KindComplete), rcv.count(KindDeliver))
	}
	var last time.Duration
	for _, ev := range snd.events {
		if ev.At < last {
			t.Fatalf("event times regressed: %v after %v", ev.At, last)
		}
		last = ev.At
	}

	all := &recorder{t: t}
	failoverRun(t, all)
	excludeRun(t, all)
	epochRun(all)
	all.events = append(all.events, snd.events...)
	all.events = append(all.events, rcv.events...)
	for k := Kind(1); k <= KindEpochBump; k++ {
		if all.count(k) == 0 {
			t.Errorf("no run emitted %v", k)
		}
	}
}

// TestKindStrings: every kind has its own mnemonic of at most five
// characters, and a kind out of range renders as Kind(n).
func TestKindStrings(t *testing.T) {
	names := make(map[string]Kind)
	for k := Kind(1); k <= KindEpochBump; k++ {
		s := k.String()
		if s == "" || len(s) > 5 || s[0] == 'K' {
			t.Errorf("kind %d renders as %q", uint8(k), s)
		}
		if prev, dup := names[s]; dup {
			t.Errorf("kinds %d and %d both render as %q", uint8(prev), uint8(k), s)
		}
		names[s] = k
	}
	if s := (KindEpochBump + 1).String(); s != "Kind(21)" {
		t.Errorf("out-of-range kind renders as %q", s)
	}
}

// TestObserverFailoverOrder: a pathlet is declared dead, then probed, then
// heard from, then readmitted — in that order, one pathlet at a time.
func TestObserverFailoverOrder(t *testing.T) {
	snd := &recorder{t: t}
	failoverRun(t, snd)
	want := []Kind{KindFailover, KindProbe, KindFeedback, KindReadmit}
	next := 0
	var path wire.PathTC
	for _, ev := range snd.events {
		if next < len(want) && ev.Kind == want[next] && (next == 0 || ev.Path == path) {
			path = ev.Path
			next++
		}
	}
	if next != len(want) {
		t.Fatalf("failover emitted %v of %v in order", want[:next], want)
	}
	for i := 1; i < len(snd.events); i++ {
		if snd.events[i].Kind != KindReadmit {
			continue
		}
		if prev := snd.events[i-1]; prev.Kind != KindFeedback || prev.Path != snd.events[i].Path {
			t.Fatalf("readmission of %v not preceded by its feedback: %v", snd.events[i].Path, prev.String())
		}
	}
}

// TestTraceDisabledIsFree: a steady-state send/ACK loop allocates no more
// with no Observer than it did before the endpoint had an event tap, and as
// much with a recording Observer as with none (the events land in a
// preallocated buffer).
func TestTraceDisabledIsFree(t *testing.T) {
	loop := func(obs Observer) float64 {
		var p pipe
		a := NewEndpoint(&pipeEnv{p: &p, to: "b"}, Config{LocalPort: 1, Observer: obs})
		b := NewEndpoint(&pipeEnv{p: &p, to: "a"}, Config{LocalPort: 2, Observer: obs})
		p.eps = map[Addr]*Endpoint{"a": a, "b": b}
		send := func() {
			a.SendSynthetic("b", 2, 512, SendOptions{})
			p.drain()
			if a.Pending() != 0 {
				t.Fatal("message not acknowledged")
			}
		}
		for i := 0; i < 100; i++ {
			send()
		}
		return testing.AllocsPerRun(200, send)
	}
	off := loop(nil)
	rec := &recorder{events: make([]Event, 0, 1<<14)}
	on := loop(rec)
	t.Logf("allocations per message: %.1f without an observer, %.1f with a recorder (%d events)", off, on, len(rec.events))
	if len(rec.events) < 201*8 {
		t.Fatalf("recorder saw %d events", len(rec.events))
	}
	if off > 2 {
		t.Errorf("%.1f allocations per message without an observer, want at most 2", off)
	}
	if on != off {
		t.Errorf("%.1f allocations per message with a recorder, %.1f without", on, off)
	}
}

// pipe joins endpoints with no network and no clock: Output copies each
// packet's header into a recycled slot of a FIFO that drain delivers in
// order. Nothing is allocated per packet once the slots exist.
type pipe struct {
	eps   map[Addr]*Endpoint
	queue []pipePkt
	free  []*wire.Header
}

type pipePkt struct {
	to, from Addr
	hdr      *wire.Header
}

type pipeEnv struct {
	p  *pipe
	to Addr // the peer; its own address is the other key
}

func (e *pipeEnv) Now() time.Duration     { return 0 }
func (e *pipeEnv) SetTimer(time.Duration) {}

func (e *pipeEnv) Output(pkt *Outbound) {
	p := e.p
	var h *wire.Header
	if n := len(p.free); n > 0 {
		h, p.free = p.free[n-1], p.free[:n-1]
	} else {
		h = new(wire.Header)
	}
	h.CopyFrom(pkt.Hdr)
	from := Addr("a")
	if e.to == "a" {
		from = "b"
	}
	p.queue = append(p.queue, pipePkt{to: pkt.Dst, from: from, hdr: h})
}

func (p *pipe) drain() {
	var in Inbound
	for i := 0; i < len(p.queue); i++ {
		q := p.queue[i]
		in = Inbound{From: q.from, Hdr: q.hdr}
		p.eps[q.to].OnPacket(&in)
		p.free = append(p.free, q.hdr)
	}
	p.queue = p.queue[:0]
}
