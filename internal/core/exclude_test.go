package core

import (
	"slices"
	"testing"
	"time"

	"mtp/internal/wire"
)

// TestAutoExcludeMarksCongestedPathlet: the sender learns two pathlets; one
// is persistently marked. The policy must exclude the marked pathlet, put it
// in outgoing headers, and re-admit it after the exclusion expires.
func TestAutoExcludeMarksCongestedPathlet(t *testing.T) {
	w, a, _, ea, _ := pair(31, us(5),
		Config{LocalPort: 1, MSS: 1000, AutoExclude: true},
		Config{LocalPort: 2},
	)
	good := wire.PathTC{PathID: 1}
	bad := wire.PathTC{PathID: 2}
	// Alternate: half the packets take the bad (always-marked) pathlet.
	i := 0
	ea.stampECN = func(pkt *Outbound) (wire.PathTC, bool, bool) {
		i++
		if i%2 == 0 {
			return bad, true, true
		}
		return good, false, true
	}
	a.SendSynthetic("b", 2, 500*1000, SendOptions{})
	w.eng.Run(5 * time.Millisecond)

	if a.Stats.Exclusions == 0 {
		t.Fatal("no exclusions issued")
	}
	st, ok := a.Table().Lookup(bad)
	if !ok {
		t.Fatal("bad pathlet unknown")
	}
	if !st.Excluded {
		t.Fatal("bad pathlet not excluded while marks persist")
	}
	if gst, _ := a.Table().Lookup(good); gst == nil || gst.Excluded {
		t.Fatal("healthy pathlet wrongly excluded")
	}
	// The exclusion must ride in outgoing data headers.
	found := false
	ea.mutate = func(pkt *Outbound) {
		if pkt.Hdr.Type == wire.TypeData && pkt.Hdr.Excludes(bad) {
			found = true
		}
	}
	a.SendSynthetic("b", 2, 50*1000, SendOptions{})
	w.eng.Run(8 * time.Millisecond)
	if !found {
		t.Fatal("exclude list not carried in headers")
	}

	// Stop marking; the exclusion expires excludeDuration after the last
	// marked window, and the next feedback once it has re-admits the pathlet.
	ea.stampECN = func(pkt *Outbound) (wire.PathTC, bool, bool) {
		return good, false, true
	}
	w.eng.Schedule(excludeDuration, func() { a.SendSynthetic("b", 2, 200*1000, SendOptions{}) })
	w.eng.Run(20 * time.Millisecond)
	if st.Excluded {
		t.Fatal("exclusion never expired")
	}
}

// TestAutoExcludeNeverExcludesOnlyPath: with a single known pathlet the
// policy must not exclude it no matter how congested.
func TestAutoExcludeNeverExcludesOnlyPath(t *testing.T) {
	w, a, _, ea, _ := pair(32, us(5),
		Config{LocalPort: 1, MSS: 1000, AutoExclude: true},
		Config{LocalPort: 2},
	)
	only := wire.PathTC{PathID: 7}
	ea.stampECN = func(pkt *Outbound) (wire.PathTC, bool, bool) {
		return only, true, true // always marked
	}
	a.SendSynthetic("b", 2, 200*1000, SendOptions{})
	w.eng.Run(10 * time.Millisecond)
	if a.Stats.Exclusions != 0 {
		t.Fatalf("excluded the only pathlet (%d exclusions)", a.Stats.Exclusions)
	}
}

// TestAutoExcludeExpiresInPathOrder: auto-exclusions that expire on one ACK
// are lifted in (PathID, TC) order, not the order they were issued in. The
// case runs fifty times, so an expiry order that varies from run to run
// shows.
func TestAutoExcludeExpiresInPathOrder(t *testing.T) {
	healthy := wire.PathTC{PathID: 3}
	issued := []wire.PathTC{{PathID: 2}, {PathID: 1, TC: 7}, {PathID: 1, TC: 2}}
	want := []wire.PathTC{{PathID: 1, TC: 2}, {PathID: 1, TC: 7}, {PathID: 2}}
	for run := 0; run < 50; run++ {
		rec := &pathEvents{}
		env := &policyEnv{now: time.Microsecond}
		e := NewEndpoint(env, Config{LocalPort: 1, AutoExclude: true, Observer: rec})
		ack := func(p wire.PathTC, marked bool) {
			fb := make([]wire.Feedback, excludeWindow)
			for i := range fb {
				fb[i] = wire.ECNFeedback(p, marked)
			}
			e.OnPacket(&Inbound{From: "b", Hdr: &wire.Header{Type: wire.TypeAck, SrcPort: 2, DstPort: 1, AckPathFeedback: fb}})
		}
		ack(healthy, false)
		for _, p := range issued {
			ack(p, true)
		}
		if got := e.Table().ExcludeList(); !slices.Equal(got, want) {
			t.Fatalf("run %d: excluded %v, want %v", run, got, want)
		}
		rec.events = rec.events[:0]
		env.now += excludeDuration
		ack(healthy, false)
		var lifted []wire.PathTC
		for _, ev := range rec.events {
			if ev.Kind == KindUnexclude {
				lifted = append(lifted, ev.Path)
			}
		}
		if !slices.Equal(lifted, want) {
			t.Fatalf("run %d: exclusions lifted in order %v, want %v", run, lifted, want)
		}
	}
}
