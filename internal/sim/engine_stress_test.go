package sim

import (
	"math/rand"
	"testing"
	"time"
)

// orderModel is the engine surface the order tests drive, once on the
// engine under test and once on refModel, an oracle that keeps every pending
// event in one slice and pops its (at, pri, seq) minimum by a linear scan.
type orderModel interface {
	now() Time
	schedule(at Time, pri uint64, id int) // at may precede now: it clamps
	stop(id int) bool
	run(until Time)
	runBefore(limit Time) Time
	runAll()
	tighten(limit Time)
	peek() (Time, bool)
	pending() int
	timerPending(id int) bool
	setFire(fire func(id int))
}

// engineModel drives *Engine, reaching every Schedule* entry point: the
// event id picks one of those that can carry the requested priority. It
// also notes where each event was queued, so a drive can count the lane
// cases it reached.
type engineModel struct {
	e      *Engine
	events []modelEvent // by id
	fire   func(id int)
	last   int // the id fired last, -1 before the first
	lastAt Time
	cover  laneCover
}

// modelEvent is what engineModel keeps of a scheduled event.
type modelEvent struct {
	t    Timer
	pri  uint64
	lane int // the lane that took it, -1 for the heap
}

// laneCover counts the lane cases a drive reached.
type laneCover struct {
	pushes      int // events queued in a lane
	tieInserts  int // ... ahead of an entry of equal time and higher priority
	crossTies   int // consecutive fires at one time from two different lanes
	crossPriSeq int // ... with equal priorities, rank or PriLast, so seq decides
	heapTies    int // consecutive fires at one time from a lane and the heap, priorities unequal
	heapTiesSeq int // ... with equal priorities, so seq decides
	stopHead    int // Stop of a lane's head
	stopTail    int // Stop of a lane's tail
	stopMiddle  int // Stop of an entry in between, marked cancelled
	injected    int // shard-pattern injections that landed in a lane
}

func engineModelFire(a1, a2 any) { a1.(*engineModel).fired(a2.(int)) }

// fired counts the ties the firing of id closes, then hands it on.
func (m *engineModel) fired(id int) {
	now := m.e.Now()
	if m.last >= 0 && m.lastAt == now {
		a, b := m.events[m.last].lane, m.events[id].lane
		switch {
		case a >= 0 && b >= 0 && a != b:
			m.cover.crossTies++
			if p := m.events[id].pri; p != 0 && p == m.events[m.last].pri {
				m.cover.crossPriSeq++
			}
		case a >= 0 != (b >= 0):
			if m.events[id].pri == m.events[m.last].pri {
				m.cover.heapTiesSeq++
			} else {
				m.cover.heapTies++
			}
		}
	}
	m.last, m.lastAt = id, now
	m.fire(id)
}

func (m *engineModel) now() Time { return m.e.Now() }

func (m *engineModel) schedule(at Time, pri uint64, id int) {
	e := m.e
	d := at - e.Now()
	fn := func() { m.fired(id) }
	var t Timer
	if pri == 0 {
		switch id % 7 {
		case 0:
			t = e.Schedule(d, fn)
		case 1:
			t = e.ScheduleAt(at, fn)
		case 2:
			t = e.ScheduleArg(d, engineModelFire, m, id)
		case 3:
			t = e.ScheduleArgAt(at, engineModelFire, m, id)
		case 4:
			t = e.SchedulePri(d, 0, fn)
		case 5:
			t = e.ScheduleArgPri(d, 0, engineModelFire, m, id)
		default:
			t = e.ScheduleArgPriAt(at, 0, engineModelFire, m, id)
		}
	} else {
		switch id % 3 {
		case 0:
			t = e.SchedulePri(d, pri, fn)
		case 1:
			t = e.ScheduleArgPri(d, pri, engineModelFire, m, id)
		default:
			t = e.ScheduleArgPriAt(at, pri, engineModelFire, m, id)
		}
	}
	m.events[id] = modelEvent{t: t, pri: pri, lane: -1}
	if b := e.arena[t.slot].bkt; b >= laneBkt {
		m.events[id].lane = int(b - laneBkt)
		m.cover.pushes++
		if ln := &e.lanes[b-laneBkt]; e.arena[t.slot].pos != (ln.head+ln.n-1)&int32(len(ln.buf)-1) {
			m.cover.tieInserts++
		}
	}
}

func newEngineModel(seed int64) *engineModel {
	return &engineModel{e: NewEngine(seed), events: make([]modelEvent, maxOrderIDs), last: -1}
}

func (m *engineModel) setFire(fire func(id int)) { m.fire = fire }

func (m *engineModel) stop(id int) bool {
	if id < 0 {
		return false // a callback's "nearby" event before the first
	}
	ev := m.events[id]
	if t := ev.t; t.Pending() && ev.lane >= 0 {
		ln, pos := &m.e.lanes[ev.lane], m.e.arena[t.slot].pos
		switch pos {
		case ln.head:
			m.cover.stopHead++
		case (ln.head + ln.n - 1) & int32(len(ln.buf)-1):
			m.cover.stopTail++
		default:
			m.cover.stopMiddle++
		}
	}
	return ev.t.Stop()
}

func (m *engineModel) timerPending(id int) bool  { return m.events[id].t.Pending() }
func (m *engineModel) run(until Time)            { m.e.Run(until) }
func (m *engineModel) runBefore(limit Time) Time { return m.e.RunBefore(limit) }
func (m *engineModel) runAll()                   { m.e.RunAll(1 << 30) }
func (m *engineModel) tighten(limit Time)        { m.e.TightenRunLimit(limit) }
func (m *engineModel) peek() (Time, bool)        { return m.e.NextEventAt() }
func (m *engineModel) pending() int              { return m.e.Pending() }

type refEvent struct {
	at       Time
	pri, seq uint64
	id       int
}

type refModel struct {
	clock    Time
	seq      uint64
	live     []refEvent
	limit    Time
	inWindow bool // inside runBefore, where tighten applies
	fire     func(id int)
}

func (r *refModel) setFire(fire func(id int)) { r.fire = fire }
func (r *refModel) timerPending(id int) bool  { return r.find(id) >= 0 }
func (r *refModel) now() Time                 { return r.clock }
func (r *refModel) pending() int              { return len(r.live) }
func (r *refModel) runAll()                   { r.drain(maxTime, true) }

func (r *refModel) run(until Time) {
	r.drain(until, true)
	r.clock = max(r.clock, until)
}

func (r *refModel) schedule(at Time, pri uint64, id int) {
	r.live = append(r.live, refEvent{at: max(at, r.clock), pri: pri, seq: r.seq, id: id})
	r.seq++
}

// earliest returns the index of the (at, pri, seq) minimum, -1 when empty.
func (r *refModel) earliest() int {
	best := -1
	for i, ev := range r.live {
		if best < 0 {
			best = i
			continue
		}
		b := r.live[best]
		if ev.at < b.at || ev.at == b.at && (ev.pri < b.pri || ev.pri == b.pri && ev.seq < b.seq) {
			best = i
		}
	}
	return best
}

func (r *refModel) find(id int) int {
	for i, ev := range r.live {
		if ev.id == id {
			return i
		}
	}
	return -1
}

func (r *refModel) remove(i int) refEvent {
	ev := r.live[i]
	r.live = append(r.live[:i], r.live[i+1:]...)
	return ev
}

func (r *refModel) stop(id int) bool {
	i := r.find(id)
	if i >= 0 {
		r.remove(i)
	}
	return i >= 0
}

// drain fires events due by the limit (re-read every step, as tighten may
// lower it inside runBefore): at < limit, or at <= limit when inclusive.
func (r *refModel) drain(limit Time, inclusive bool) {
	r.limit = limit
	for {
		i := r.earliest()
		if i < 0 || r.live[i].at > r.limit || r.live[i].at == r.limit && !inclusive {
			return
		}
		ev := r.remove(i)
		r.clock = ev.at
		r.fire(ev.id)
	}
}

func (r *refModel) runBefore(limit Time) Time {
	r.inWindow = true
	r.drain(limit, false)
	r.inWindow = false
	r.clock = max(r.clock, r.limit)
	return r.limit
}

func (r *refModel) tighten(limit Time) {
	if !r.inWindow || limit >= r.limit {
		return
	}
	r.limit = max(limit, r.clock+1)
}

func (r *refModel) peek() (Time, bool) {
	if i := r.earliest(); i >= 0 {
		return r.live[i].at, true
	}
	return 0, false
}

// orderSource supplies driveOrder's choices: a seeded generator for the
// stress test, the fuzzer's bytes for FuzzEngineOrder.
type orderSource interface {
	pick(n int) int // in [0, n)
	done() bool
}

type randSource struct {
	r     *rand.Rand
	steps int
}

func (s *randSource) pick(n int) int { return s.r.Intn(n) }
func (s *randSource) done() bool {
	s.steps--
	return s.steps < 0
}

type byteSource struct{ data []byte }

func (s *byteSource) pick(n int) int {
	var v int
	for i := 0; i < 3 && len(s.data) > 0; i++ {
		v = v<<8 | int(s.data[0])
		s.data = s.data[1:]
	}
	return v % n
}
func (s *byteSource) done() bool { return len(s.data) == 0 }

// mix is a fixed integer hash: what a fired event does is a function of its
// id alone, so both sides act alike as long as they fire alike.
func mix(id int) uint64 {
	x := uint64(id)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>29
}

// spread maps (exp, frac) to a delay in [2^exp, 2^(exp+1)) ns; exp 0..30
// reaches from 1 ns to 1 s, so events land in every bucket a run can use.
func spread(exp, frac int) Time {
	return Time(1)<<exp + Time(frac)*(Time(1)<<exp)>>16
}

// hopDelays are the delays of 97 % of sim_incast's schedules: propagation,
// the serialization of a data packet, and that of two ACK sizes.
var hopDelays = [...]Time{time.Microsecond, 1248 * time.Nanosecond, 116 * time.Nanosecond, 103 * time.Nanosecond}

// hop maps (exp, frac) to one of hopDelays, or for three exps in 31 to
// spread's delay, so the engine's lanes take most events and the heap the
// rest. Sums of hopDelays coincide (1 µs + 1.248 µs either way round), which
// brings events of different lanes due at one time.
func hop(exp, frac int) Time {
	if exp%8 != 7 {
		return hopDelays[frac%len(hopDelays)]
	}
	return spread(exp, frac)
}

// rank is a link-rank-like priority: small and positive, or PriLast.
func rank(h uint64) uint64 {
	if h%5 == 0 {
		return PriLast
	}
	return 1 + h%64
}

// orderSide is one model under driveOrder, with its fire log, id counter,
// and the delay distribution its callbacks draw from (spread or hop).
type orderSide struct {
	m     orderModel
	log   []int // fired ids, and -1/-2 for a callback's Stop result
	next  int
	delay func(exp, frac int) Time
}

// maxOrderIDs bounds how many events one drive creates, callbacks included.
const maxOrderIDs = 6000

// onFire logs id and runs its callback: schedule a child at delay 0, at the
// current instant with a link-rank priority, or up to 1 s out; tighten the
// run window (sometimes to at or below the clock); or stop a nearby event.
func (s *orderSide) onFire(id int) {
	s.log = append(s.log, id)
	m := s.m
	h := mix(id)
	child := func(at Time, pri uint64) {
		if s.next < maxOrderIDs {
			m.schedule(at, pri, s.next)
			s.next++
		}
	}
	switch h % 8 {
	case 0:
		child(m.now(), 0)
	case 1:
		child(m.now(), rank(h>>8))
	case 2:
		child(m.now()+s.delay(int(h>>8%31), int(h>>16%65536)), PriLast)
	case 3:
		child(m.now()+s.delay(int(h>>8%31), int(h>>16%65536)), rank(h>>40))
	case 4:
		m.tighten(m.now() + Time(h>>8%2000) - 1000)
	case 5:
		if m.stop(id - 1 - int(h>>8%5)) {
			s.log = append(s.log, -1)
		} else {
			s.log = append(s.log, -2)
		}
	}
}

// driveOrder applies the same op stream to the engine and to the oracle and
// fails at the first observable difference: fire order, clock, pending
// count, peeked time, Stop and Pending results, RunBefore's returned bound.
// With hops set, schedules, callbacks and run horizons draw their delays
// from hop instead of spread, and shard-pattern injections land on one of
// hopDelays when it falls before the peeked time. It returns the lane cases
// the drive reached.
func driveOrder(t *testing.T, src orderSource, seed int64, hops bool) laneCover {
	t.Helper()
	em := newEngineModel(seed)
	eng, ref := &orderSide{m: em}, &orderSide{m: &refModel{}}
	sides := []*orderSide{eng, ref}
	delay := spread
	if hops {
		delay = hop
	}
	for _, s := range sides {
		s.m.setFire(s.onFire)
		s.delay = delay
	}
	check := func(step int, what string) {
		t.Helper()
		a, b := eng.m, ref.m
		ea, eok := a.peek()
		ra, rok := b.peek()
		switch {
		case len(eng.log) != len(ref.log):
			t.Fatalf("step %d (%s): engine logged %d entries, reference %d", step, what, len(eng.log), len(ref.log))
		case a.now() != b.now():
			t.Fatalf("step %d (%s): now %v, reference %v", step, what, a.now(), b.now())
		case a.pending() != b.pending():
			t.Fatalf("step %d (%s): %d pending, reference %d", step, what, a.pending(), b.pending())
		case ea != ra || eok != rok:
			t.Fatalf("step %d (%s): NextEventAt %v %v, reference %v %v", step, what, ea, eok, ra, rok)
		}
		for i := range eng.log {
			if eng.log[i] != ref.log[i] {
				t.Fatalf("step %d (%s): fire log diverges at %d: engine %d, reference %d", step, what, i, eng.log[i], ref.log[i])
			}
		}
	}
	for step := 0; !src.done(); step++ {
		now := eng.m.now()
		op := src.pick(16)
		switch {
		case op < 7: // schedule: 1 ns to 1 s ahead, now, or in the past
			var at Time
			switch src.pick(8) {
			case 0:
				at = now
			case 1:
				at = now - Time(src.pick(1000))
			default:
				at = now + delay(src.pick(31), src.pick(65536))
			}
			pri := uint64(0)
			if p := src.pick(4); p == 1 {
				pri = PriLast
			} else if p > 1 {
				pri = rank(uint64(src.pick(1 << 16)))
			}
			if eng.next < maxOrderIDs {
				for _, s := range sides {
					s.m.schedule(at, pri, s.next)
					s.next++
				}
			}
		case op < 9: // stop a pending event, or a fired or stopped one
			if eng.next == 0 {
				continue
			}
			id := eng.next - 1 - src.pick(min(eng.next, 64))
			if a, b := eng.m.stop(id), ref.m.stop(id); a != b {
				t.Fatalf("step %d: Stop(%d) = %v, reference %v", step, id, a, b)
			}
			if a, b := eng.m.timerPending(id), ref.m.timerPending(id); a || b {
				t.Fatalf("step %d: Pending(%d) = %v, reference %v after Stop", step, id, a, b)
			}
		case op < 11: // Run to an inclusive horizon, sometimes behind the clock
			until := now + delay(src.pick(31), src.pick(65536)) - Time(src.pick(2))*Time(time.Microsecond)
			for _, s := range sides {
				s.m.run(until)
			}
		case op < 13: // one RunBefore window, callbacks tightening it
			limit := now + delay(src.pick(31), src.pick(65536))
			if a, b := eng.m.runBefore(limit), ref.m.runBefore(limit); a != b {
				t.Fatalf("step %d: RunBefore(%v) = %v, reference %v", step, limit, a, b)
			}
		case op < 15: // the shard pattern: peek, then inject in [now, peeked)
			next, ok := eng.m.peek()
			if !ok || next <= now || eng.next >= maxOrderIDs {
				continue
			}
			at := now + Time(src.pick(1<<16))*(next-now)>>16
			if hops {
				if d := hopDelays[src.pick(len(hopDelays))]; now+d < next {
					at = now + d
				}
			}
			pri := rank(uint64(src.pick(1 << 16)))
			for _, s := range sides {
				s.m.schedule(at, pri, s.next)
				s.next++
			}
			if em.events[eng.next-1].lane >= 0 {
				em.cover.injected++
			}
		default:
			if src.pick(4) == 0 {
				for _, s := range sides {
					s.m.runAll()
				}
			}
		}
		check(step, "op")
	}
	for _, s := range sides {
		s.m.runAll()
	}
	check(-1, "drain")
	return em.cover
}

// TestEngineStressVsReference interleaves every scheduling entry point,
// Stop, Run, RunBefore with callbacks that tighten it, NextEventAt peeks
// followed by injections before the peeked time, and callbacks that schedule
// at delay 0 and at the current instant, on the engine and on a sorted
// (at, pri, seq) oracle, and requires the two to agree at every step.
func TestEngineStressVsReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		driveOrder(t, &randSource{r: rand.New(rand.NewSource(seed)), steps: 3000}, seed, false)
	}
}

// FuzzEngineOrder drives the same comparison from the fuzzer's bytes; an
// odd first byte selects the hop delays, and the rest is the schedule. Each
// seed schedule is added behind both mode bytes.
func FuzzEngineOrder(f *testing.F) {
	random := make([]byte, 600)
	rand.New(rand.NewSource(1)).Read(random)
	for _, seed := range [][]byte{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		[]byte("\x00\x00\x01\x07\x00\x00\x0e\x00\x00\x0b\x00\x10\x00\x00\x0d\xff\xff"),
		random,
	} {
		for _, mode := range []byte{0, 1} {
			f.Add(append([]byte{mode}, seed...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		driveOrder(t, &byteSource{data: data[1:]}, 1, data[0]&1 == 1)
	})
}

// TestEngineEveryBucket schedules events whose times differ from the clock
// in every bit position, in scrambled order, and requires them to fire in
// time order.
func TestEngineEveryBucket(t *testing.T) {
	e := NewEngine(1)
	var want []Time
	for k := 0; k < 62; k++ {
		want = append(want, Time(1)<<k, Time(1)<<k+Time(1)<<k>>1)
	}
	var got []Time
	perm := rand.New(rand.NewSource(1)).Perm(len(want))
	for _, i := range perm {
		e.ScheduleAt(want[i], func() { got = append(got, e.Now()) })
	}
	e.RunAll(uint64(len(want)))
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}
