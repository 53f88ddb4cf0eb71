package core

import (
	"slices"
	"testing"
	"time"

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

// pathEvents records the pathlet events of the exclusion state machine.
type pathEvents struct{ events []Event }

func (r *pathEvents) Observe(_ *Endpoint, ev *Event) {
	switch ev.Kind {
	case KindExclude, KindUnexclude, KindFailover, KindProbe, KindReadmit:
		r.events = append(r.events, *ev)
	}
}

// policyPathlets are the three pathlets FuzzPathletPolicy's feedback names.
var policyPathlets = [3]wire.PathTC{{PathID: 1}, {PathID: 2, TC: 1}, {PathID: 3}}

// FuzzPathletPolicy is a model-based test of the two exclusion policies, the
// auto-exclude window and failover, alone and together. mode%3 picks
// auto-exclude alone, failover alone, or both; the script is two bytes per
// step, an operation and its argument:
//
//	0, 1  an ACK carrying 1..32 ECN (0) or trim (1) feedback entries for one
//	      pathlet, marked or not
//	2     proof of life: an ACK acknowledging every packet sent so far, with
//	      delay feedback for one pathlet
//	3     a timeout round: the clock jumps to the armed timer, which fires
//	      (the retransmissions go out on the predicted pathlet)
//	4     the clock advances, firing every timer due on the way
//	5     a data send, which goes out as a probe when a dead pathlet is due
//
// After every call into the endpoint it checks that a pathlet is excluded
// exactly while failover holds it dead or an auto-exclusion covers it; that
// ExcludeList is sorted and equals a walk over States(); that a dead pathlet
// leaves the list only through feedback naming it; that every Exclude,
// Unexclude, Failover and Readmit event matches a change of the policies'
// state, and the counters count them; and that every data packet carries the
// exclude list, less one dead pathlet when it is that pathlet's probe.
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

	f.Fuzz(runPolicy)
}

// runPolicy plays one FuzzPathletPolicy script.
func runPolicy(t *testing.T, mode byte, script []byte) {
	const maxSteps = 128
	if len(script) > 2*maxSteps {
		script = script[:2*maxSteps]
	}
	cfg := Config{LocalPort: 1, MSS: 1000, RTO: time.Millisecond, ProbeInterval: 2 * time.Millisecond}
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
		env.data = env.data[:0]
		run()

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

	ack := func(named wire.PathTC, fb []wire.Feedback, sack []wire.PacketRef) {
		in := &Inbound{From: "b", Hdr: &wire.Header{
			Type: wire.TypeAck, SrcPort: 2, DstPort: 1, AckPathFeedback: fb, SACK: sack,
		}}
		call(&named, func() { e.OnPacket(in) })
	}
	fire := func() {
		call(nil, func() {
			env.timerAt = 0
			e.OnTimer(env.now)
		})
	}

	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%6, script[i+1]
		p := policyPathlets[int(arg)%len(policyPathlets)]
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
			call(nil, func() { e.SendSynthetic("b", 2, 1000, SendOptions{}) })
		}
	}
}
