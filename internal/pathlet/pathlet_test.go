package pathlet

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"mtp/internal/cc"
	"mtp/internal/wire"
)

func newTable() *Table {
	return NewTable(func(wire.PathTC) cc.Algorithm {
		return cc.NewDCTCP(cc.Config{MSS: 1460})
	})
}

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestGetCreatesOnce(t *testing.T) {
	tb := newTable()
	p := wire.PathTC{PathID: 7, TC: 1}
	a := tb.Get(p)
	b := tb.Get(p)
	if a != b {
		t.Fatal("Get created two states for one pathlet")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if _, ok := tb.Lookup(wire.PathTC{PathID: 8}); ok {
		t.Fatal("Lookup invented a state")
	}
}

func TestCurrentDefaultsAndFollowsFeedback(t *testing.T) {
	tb := newTable()
	if got := tb.Current().Path; got != DefaultPath {
		t.Fatalf("initial current = %v", got)
	}
	p1 := wire.PathTC{PathID: 1}
	p2 := wire.PathTC{PathID: 2}
	tb.OnAck(us(10), []wire.Feedback{wire.ECNFeedback(p1, false)}, 1460, us(100))
	if got := tb.Current().Path; got != p1 {
		t.Fatalf("current = %v, want %v", got, p1)
	}
	tb.OnAck(us(20), []wire.Feedback{wire.ECNFeedback(p2, false)}, 1460, us(100))
	if got := tb.Current().Path; got != p2 {
		t.Fatalf("current = %v, want %v", got, p2)
	}
	tb.SetCurrent(p1)
	if got := tb.Current().Path; got != p1 {
		t.Fatalf("SetCurrent ignored: %v", got)
	}
}

func TestOnAckSeparatesPathletState(t *testing.T) {
	tb := newTable()
	fast := wire.PathTC{PathID: 1}
	slow := wire.PathTC{PathID: 2}
	now := us(0)
	// Grow the fast pathlet cleanly; mark the slow one heavily.
	for i := 0; i < 200; i++ {
		now += us(10)
		tb.OnAck(now, []wire.Feedback{wire.ECNFeedback(fast, false)}, 1460, us(100))
		tb.OnAck(now, []wire.Feedback{wire.ECNFeedback(slow, true)}, 1460, us(100))
	}
	wFast := tb.Get(fast).Algo.Window()
	wSlow := tb.Get(slow).Algo.Window()
	if wFast <= wSlow {
		t.Fatalf("fast window %v not above slow window %v", wFast, wSlow)
	}
	// The unmarked pathlet's window must be unaffected by the marked one —
	// the property TCP lacks (Fig. 5's premise).
	if wFast < 100*1460 {
		t.Fatalf("fast window %v polluted by slow pathlet marks", wFast)
	}
}

func TestOnAckNoFeedbackUsesDefaultPath(t *testing.T) {
	tb := newTable()
	updated := tb.OnAck(us(5), nil, 1460, us(50))
	if len(updated) != 1 || updated[0].Path != DefaultPath {
		t.Fatalf("updated = %+v", updated)
	}
}

// recorder is an algorithm that keeps every signal OnAck hands it.
type recorder struct {
	cc.Algorithm
	sigs []cc.Signal
}

func (r *recorder) OnAck(now time.Duration, s cc.Signal) {
	r.sigs = append(r.sigs, s)
	r.Algorithm.OnAck(now, s)
}

// TestSignalsGrouping: OnAck hands each pathlet one signal that merges all of
// the ACK's feedback entries for it.
func TestSignalsGrouping(t *testing.T) {
	recs := map[wire.PathTC]*recorder{}
	tb := NewTable(func(p wire.PathTC) cc.Algorithm {
		r := &recorder{Algorithm: cc.NewDCTCP(cc.Config{MSS: 1460})}
		recs[p] = r
		return r
	})
	p1 := wire.PathTC{PathID: 1}
	p2 := wire.PathTC{PathID: 2, TC: 1}
	entries := []wire.Feedback{
		wire.ECNFeedback(p1, true),
		wire.RateFeedback(p2, 25e9),
		wire.DelayFeedback(p2, 7000),
		wire.TrimFeedback(p1, 1460),
	}
	if updated := tb.OnAck(us(1), entries, 2920, us(80)); len(updated) != 2 {
		t.Fatalf("updated %d pathlets", len(updated))
	}
	if len(recs) != 2 || len(recs[p1].sigs) != 1 || len(recs[p2].sigs) != 1 {
		t.Fatalf("signal groups: %d pathlets, %d and %d signals", len(recs), len(recs[p1].sigs), len(recs[p2].sigs))
	}
	s1 := recs[p1].sigs[0]
	if !s1.ECN || s1.AckedBytes != 2920 || s1.RTT != us(80) || s1.HasRate || s1.HasDelay {
		t.Fatalf("p1 signal = %+v", s1)
	}
	s2 := recs[p2].sigs[0]
	if !s2.HasRate || s2.RateBps != 25e9 || !s2.HasDelay || s2.Delay != 7*time.Microsecond || s2.AckedBytes != 2920 {
		t.Fatalf("p2 signal = %+v", s2)
	}
	if s2.ECN {
		t.Fatal("p2 marked without ECN feedback")
	}
	tb.OnAck(us(2), nil, 1, us(1))
	if d := recs[DefaultPath]; d == nil || len(d.sigs) != 1 || d.sigs[0] != (cc.Signal{AckedBytes: 1, RTT: us(1)}) {
		t.Fatalf("no-feedback ACK: default pathlet recorder %+v", d)
	}
}

func TestInflightAccounting(t *testing.T) {
	tb := newTable()
	p := wire.PathTC{PathID: 3}
	tb.AddInflight(p, 3000)
	if got := tb.Get(p).Inflight; got != 3000 {
		t.Fatalf("Inflight = %d", got)
	}
	tb.RemoveInflight(p, 1000)
	if got := tb.Get(p).Inflight; got != 2000 {
		t.Fatalf("Inflight = %d", got)
	}
}

func TestCanSend(t *testing.T) {
	tb := newTable()
	s := tb.Get(wire.PathTC{PathID: 1})
	w := int(s.Algo.Window())
	if !s.CanSend(w) {
		t.Fatal("CanSend(full window) = false")
	}
	s.Inflight = w
	if s.CanSend(1) {
		t.Fatal("CanSend over window = true")
	}
	// An idle pathlet always admits at least one packet, so a zero or tiny
	// window cannot deadlock the sender.
	s.Inflight = 0
	if !s.CanSend(10 * w) {
		t.Fatal("empty pathlet refused a packet")
	}
}

func TestExcludeList(t *testing.T) {
	tb := newTable()
	p1 := wire.PathTC{PathID: 5, TC: 1}
	p2 := wire.PathTC{PathID: 2, TC: 0}
	tb.SetExcluded(p1, true)
	tb.SetExcluded(p2, true)
	got := tb.ExcludeList()
	if len(got) != 2 || got[0] != p2 || got[1] != p1 {
		t.Fatalf("ExcludeList = %v", got)
	}
	tb.SetExcluded(p1, false)
	if got := tb.ExcludeList(); len(got) != 1 || got[0] != p2 {
		t.Fatalf("ExcludeList after clear = %v", got)
	}
}

// TestQuickExcludeListMatchesWalk: after every step of a random on/off
// sequence (repeats and never-seen pathlets included), ExcludeList equals the
// sorted set of states whose Excluded flag is set, and is nil when that set is
// empty; a list handed out earlier reads as it did when handed out, whatever
// changed since; and while exclusions exist, ExcludeList allocates nothing.
func TestQuickExcludeListMatchesWalk(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := newTable()
		var held, heldCopy []wire.PathTC // a list handed out earlier
		for i := 0; i < 200; i++ {
			p := wire.PathTC{PathID: uint32(r.Intn(6)), TC: uint8(r.Intn(2))}
			switch r.Intn(3) {
			case 0:
				tb.SetExcluded(p, true)
			case 1:
				tb.SetExcluded(p, false)
			default:
				tb.Get(p) // known but never excluded
			}
			var want []wire.PathTC
			for _, s := range tb.States() { // sorted by (PathID, TC)
				if s.Excluded {
					want = append(want, s.Path)
				}
			}
			got := tb.ExcludeList()
			if (got == nil) != (want == nil) || !slices.Equal(got, want) {
				return false
			}
			if !slices.Equal(held, heldCopy) {
				t.Errorf("seed %d step %d: a list handed out earlier changed from %v to %v", seed, i, heldCopy, held)
				return false
			}
			if r.Intn(4) == 0 {
				held, heldCopy = got, slices.Clone(got)
			}
		}
		tb.SetExcluded(wire.PathTC{PathID: 7}, true)
		tb.SetExcluded(wire.PathTC{PathID: 8, TC: 1}, true)
		if n := testing.AllocsPerRun(100, func() { held = tb.ExcludeList() }); n != 0 {
			t.Errorf("ExcludeList with %d exclusions: %.1f allocations per call", len(held), n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatesDeterministicOrder(t *testing.T) {
	tb := newTable()
	for _, p := range []wire.PathTC{{PathID: 3}, {PathID: 1, TC: 2}, {PathID: 1, TC: 0}, {PathID: 2}} {
		tb.Get(p)
	}
	got := tb.States()
	want := []wire.PathTC{{PathID: 1, TC: 0}, {PathID: 1, TC: 2}, {PathID: 2}, {PathID: 3}}
	for i := range want {
		if got[i].Path != want[i] {
			t.Fatalf("States order = %v", got)
		}
	}
}

func TestOnLossAffectsOnlyTarget(t *testing.T) {
	tb := newTable()
	p1 := wire.PathTC{PathID: 1}
	p2 := wire.PathTC{PathID: 2}
	// Grow both windows.
	now := us(0)
	for i := 0; i < 50; i++ {
		now += us(10)
		tb.OnAck(now, []wire.Feedback{wire.ECNFeedback(p1, false), wire.ECNFeedback(p2, false)}, 1460, us(100))
	}
	w2 := tb.Get(p2).Algo.Window()
	w1 := tb.Get(p1).Algo.Window()
	tb.OnLoss(now, p1)
	if tb.Get(p1).Algo.Window() >= w1 {
		t.Fatal("loss did not shrink target pathlet")
	}
	if tb.Get(p2).Algo.Window() != w2 {
		t.Fatal("loss leaked into unrelated pathlet")
	}
}
