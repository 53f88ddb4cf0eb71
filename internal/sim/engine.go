// Package sim provides a deterministic discrete-event simulation engine with
// a virtual clock. It is the substrate that replaces ns-3 in this
// reproduction: network elements schedule events (packet arrivals,
// transmission completions, timers) on a shared engine, and experiments run
// to a virtual deadline in milliseconds of real CPU time.
//
// The engine is single-threaded and deterministic: events at equal timestamps
// fire in (priority, scheduling-order) order, and all randomness flows from a
// seeded source, so every experiment is exactly reproducible. Priorities
// (default 0) let spatially-keyed events — e.g. packet deliveries keyed by a
// global link rank — tie-break identically whether the topology runs on one
// engine or is partitioned across several (internal/shard): the scheduling
// sequence number is engine-local, but a priority derived from the network
// element is not.
//
// Events live by value in an arena with a free-list, so steady-state
// Schedule/Stop/Run perform zero heap allocations. The pending set sorts only
// what arrives unsorted. A simulated network schedules most of its events
// with a handful of delays (a link's propagation delay, the serialization
// time of a full packet and of an ACK), and since the clock never runs
// backwards the events scheduled with one delay come due in the order they
// were scheduled. Each such delay gets a lane: a FIFO ring whose entries
// carry their (time, priority, sequence) key inline, so a push is an append
// and a pop compares only the lane heads. Every other event (timers, and
// delays that do not repeat) goes to one 4-ary min-heap keyed by the same
// (time, priority, sequence). A pop takes the minimum of the lane heads and
// the heap's top, so lanes change the cost of the order, never the order.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// Time is simulated time measured as a duration since the start of the run.
type Time = time.Duration

// key is an event's place in the total order.
type key struct {
	at  Time
	pri uint64 // first tiebreak among equal timestamps (0 for plain events)
	seq uint64 // final tiebreak: FIFO among equal (at, pri)
}

// before reports whether a orders before b by (at, pri, seq). It is the
// engine's one order comparison: the heap, the lanes and the choice between
// them all use it.
func (a *key) before(b *key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// event is a scheduled callback, stored by value in the engine arena.
// Exactly one of fn and afn is set. gen disambiguates Timer handles across
// slot reuse.
type event struct {
	key
	fn  func()
	afn func(a1, a2 any)
	a1  any
	a2  any
	gen uint32
	// bkt is where the slot is queued: 0 for the heap, laneBkt+i for lane i,
	// -1 once fired, cancelled, or free.
	bkt int32
	// pos is the slot's index in the heap or in its lane's ring; a free
	// slot's next is the next free slot.
	pos, next int32
}

// laneCount is the number of lanes. sim_incast spends 97 % of its schedules
// on four delays (propagation, the serialization of a data packet and of two
// ACK sizes).
const laneCount = 4

// A lane is freed when it takes less than 1/laneShare of the schedules of an
// epoch of laneEpoch schedules: a rare delay costs every pop a comparison and
// saves a few heap sifts.
const (
	laneEpoch = 4096
	laneShare = 64
)

// laneBkt is the bkt of the slots queued in lane 0.
const laneBkt = 1

// minLaneRing is the ring size a lane starts with; NewEngine allocates the
// four in one block, so an engine that is never reserved allocates nothing
// when a delay first takes a lane.
const minLaneRing = 16

// laneEntry is a lane's copy of an event's order key, so comparing lane heads
// never reads the arena. slot is ^slot once Stop cancelled the event.
type laneEntry struct {
	key
	slot int32
}

// lane is the FIFO of the events scheduled with one delay, in (at, pri, seq)
// order: a ring of n entries from head, its length a power of two.
type lane struct {
	buf     []laneEntry
	head, n int32
}

func (ln *lane) first() *laneEntry { return &ln.buf[ln.head] }

// heapArity is the fan-out of the heap. A 4-ary heap halves the tree depth
// vs binary and keeps the children of a node on one cache line.
const heapArity = 4

// maxTime is the latest representable instant: RunAll's unbounded limit.
const maxTime = Time(math.MaxInt64)

// Timer is a handle to a scheduled event that can be stopped. The zero value
// is inert: Stop on it returns false.
type Timer struct {
	en   *Engine
	slot int32
	gen  uint32
}

// Stop cancels the timer if it has not fired. It reports whether the timer
// was still pending. Stopping a fired, cancelled, or zero timer is a no-op.
func (t Timer) Stop() bool {
	e := t.en
	if e == nil {
		return false
	}
	ev := &e.arena[t.slot]
	if ev.gen != t.gen || ev.bkt < 0 {
		return false
	}
	if ev.bkt >= laneBkt {
		e.laneCancel(t.slot)
		return true
	}
	e.removeAt(int(ev.pos))
	e.release(t.slot)
	return true
}

// Engine is a discrete-event simulator instance.
type Engine struct {
	now   Time
	seq   uint64
	arena []event // all event slots, live and free
	free  int32   // last freed slot, -1 if none (LIFO for cache locality)
	rng   *rand.Rand

	// order is a 4-ary min-heap of the slots of the pending events that no
	// lane took, keyed by (at, pri, seq).
	order   []int32
	pending int

	// Lane i holds the events scheduled delay[i] ahead of the clock; a free
	// lane's delay is -1, and it may still hold events until it drains. A
	// free, empty lane goes to a delay that missed three times in a row
	// (missRun times so far for missed, the last delay that missed), so a
	// delay that does not repeat costs the lookup and nothing else.
	lanes    [laneCount]lane
	delay    [laneCount]Time
	laneAt   [laneCount]Time  // the time of lane i's head, maxTime when empty
	laneMask uint32           // bit i set: lane i is non-empty, and its head is live
	laneUsed uint32           // bit i set: delay[i] is not -1
	laneHits [laneCount]int32 // schedules lane i took this epoch
	missed   Time
	missRun  int

	processed uint64
	running   bool
	// runLimit is the exclusive bound of the RunBefore window currently
	// executing. Event callbacks may lower it via TightenRunLimit; RunBefore
	// re-reads it every iteration.
	runLimit Time

	// step, when non-nil, observes every event execution (internal/check's
	// clock-monotonicity and ordering invariants). Nil in normal operation so
	// the hot loop pays one predictable branch.
	step func(at Time, pri, seq uint64)
}

// PriLast orders an event after every other event at the same timestamp,
// whatever its scheduling order. Samplers (queue-occupancy probes) use it so
// a reading at time t reflects all of t's activity — a property that holds
// per shard too, which keeps sharded and unsharded samples identical.
const PriLast = ^uint64(0)

// NewEngine returns an engine with the clock at zero and randomness derived
// from seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed)), free: -1, missed: -1}
	rings := make([]laneEntry, laneCount*minLaneRing)
	for i := range e.lanes {
		e.lanes[i].buf = rings[i*minLaneRing : (i+1)*minLaneRing : (i+1)*minLaneRing]
		e.delay[i] = -1
		e.laneAt[i] = maxTime
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SetStepHook installs fn to be called immediately before each event
// executes, with the event's firing time, priority, and scheduling sequence
// number. Passing nil removes the hook.
func (e *Engine) SetStepHook(fn func(at Time, pri, seq uint64)) { e.step = fn }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Reserve grows the arena and the heap so at least n events can be queued at
// once without reallocation (the free-list lives in the arena and needs
// nothing more). An event stopped in the middle of a lane holds its slot,
// and so counts as queued, until its entry reaches the lane's head. Each
// lane's ring gets room for an even share of the n, and a delay that holds
// more doubles its ring: rings sized for all n would spread each lane's
// sliding window over four times the memory, which cost BenchmarkEngineHopMix
// about 5 %. Topology builders call it with an estimate derived from the
// fabric's element count (hosts, links, timers), so a shard's engine reaches
// its steady-state footprint at construction time instead of through
// repeated doubling during the first congestion burst.
func (e *Engine) Reserve(n int) {
	if cap(e.arena) < n {
		arena := make([]event, len(e.arena), n)
		copy(arena, e.arena)
		e.arena = arena
	}
	if cap(e.order) < n {
		order := make([]int32, len(e.order), n)
		copy(order, e.order)
		e.order = order
	}
	ring := minLaneRing
	for ring < n/laneCount {
		ring *= 2
	}
	for i := range e.lanes {
		if len(e.lanes[i].buf) < ring {
			e.laneResize(i, ring)
		}
	}
}

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (run as soon as control returns to the loop). It returns a Timer
// that can cancel the callback.
func (e *Engine) Schedule(delay Time, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) Timer {
	if fn == nil {
		panic("sim: ScheduleAt with nil fn")
	}
	return e.schedule(at, 0, fn, nil, nil, nil)
}

// SchedulePri runs fn after delay with an explicit same-timestamp priority:
// among events at one timestamp, lower pri fires first, and equal pri falls
// back to scheduling order. Plain Schedule* calls use pri 0.
func (e *Engine) SchedulePri(delay Time, pri uint64, fn func()) Timer {
	if fn == nil {
		panic("sim: SchedulePri with nil fn")
	}
	if delay < 0 {
		delay = 0
	}
	return e.schedule(e.now+delay, pri, fn, nil, nil, nil)
}

// ScheduleArg runs fn(a1, a2) after delay. Unlike Schedule with a closure,
// a package-level fn plus pointer-typed args allocates nothing, which keeps
// per-packet event scheduling off the heap.
func (e *Engine) ScheduleArg(delay Time, fn func(a1, a2 any), a1, a2 any) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleArgAt(e.now+delay, fn, a1, a2)
}

// ScheduleArgAt runs fn(a1, a2) at absolute virtual time at, clamped to now.
func (e *Engine) ScheduleArgAt(at Time, fn func(a1, a2 any), a1, a2 any) Timer {
	if fn == nil {
		panic("sim: ScheduleArgAt with nil fn")
	}
	return e.schedule(at, 0, nil, fn, a1, a2)
}

// ScheduleArgPri is ScheduleArg with an explicit same-timestamp priority
// (see SchedulePri). Packet deliveries use it with a priority derived from a
// global link rank, making equal-time delivery order a property of the
// topology instead of engine-local scheduling history.
func (e *Engine) ScheduleArgPri(delay Time, pri uint64, fn func(a1, a2 any), a1, a2 any) Timer {
	if fn == nil {
		panic("sim: ScheduleArgPri with nil fn")
	}
	if delay < 0 {
		delay = 0
	}
	return e.schedule(e.now+delay, pri, nil, fn, a1, a2)
}

// ScheduleArgPriAt is ScheduleArgAt with an explicit same-timestamp priority
// (externally-injected cross-shard deliveries carry an absolute arrival time).
func (e *Engine) ScheduleArgPriAt(at Time, pri uint64, fn func(a1, a2 any), a1, a2 any) Timer {
	if fn == nil {
		panic("sim: ScheduleArgPriAt with nil fn")
	}
	return e.schedule(at, pri, nil, fn, a1, a2)
}

func (e *Engine) schedule(at Time, pri uint64, fn func(), afn func(a1, a2 any), a1, a2 any) Timer {
	if at < e.now {
		at = e.now
	}
	var slot int32
	if e.free >= 0 {
		slot = e.free
		e.free = e.arena[slot].next
	} else {
		e.arena = append(e.arena, event{})
		slot = int32(len(e.arena) - 1)
		if cap(e.order) < cap(e.arena) {
			// The heap may hold every slot at once: it grows with the
			// arena, so a burst of events that take no lane never grows it
			// mid-run.
			e.order = slices.Grow(e.order, cap(e.arena)-len(e.order))
		}
	}
	ev := &e.arena[slot]
	ev.at = at
	ev.pri = pri
	ev.seq = e.seq
	e.seq++
	ev.fn = fn
	ev.afn = afn
	ev.a1 = a1
	ev.a2 = a2
	e.pending++
	if i := e.laneFor(at - e.now); i >= 0 {
		e.lanePush(i, slot)
	} else {
		ev.bkt = 0
		e.order = append(e.order, slot)
		e.siftUp(len(e.order) - 1)
	}
	return Timer{en: e, slot: slot, gen: ev.gen}
}

// laneFor returns the lane of the events scheduled d ahead of the clock, or
// -1 to send the event to the heap. A delay that misses three times in a row
// takes a free, empty lane if there is one. Every laneEpoch schedules (seq
// counts them), a lane that took fewer than laneEpoch/laneShare of them is
// freed, to take no new events and to drain.
// With no lane in use there is nothing to free or look up, so on an engine
// whose delays do not repeat a schedule pays one comparison here.
func (e *Engine) laneFor(d Time) int {
	if e.laneUsed != 0 {
		if e.seq%laneEpoch == 0 {
			for i, hits := range e.laneHits {
				if hits < laneEpoch/laneShare {
					e.delay[i] = -1
					e.laneUsed &^= 1 << i
				}
				e.laneHits[i] = 0
			}
		}
		for i, ld := range e.delay {
			if ld == d {
				e.laneHits[i]++
				return i
			}
		}
	}
	if d != e.missed {
		e.missed, e.missRun = d, 1
		return -1
	}
	if e.missRun++; e.missRun < 3 {
		return -1
	}
	for i, ld := range e.delay {
		if ld < 0 && e.laneMask&(1<<i) == 0 {
			e.delay[i] = d
			e.laneUsed |= 1 << i
			e.missed = -1
			return i
		}
	}
	return -1
}

// lanePush appends a pending slot to lane i. Its time is at least that of
// every entry already there, because the clock never runs backwards; only
// the entries of equal time and higher priority at the tail move back one.
func (e *Engine) lanePush(i int, slot int32) {
	ln := &e.lanes[i]
	if int(ln.n) == len(ln.buf) {
		e.laneResize(i, 2*len(ln.buf))
	}
	ev := &e.arena[slot]
	ev.bkt = int32(laneBkt + i)
	mask := int32(len(ln.buf) - 1)
	p := (ln.head + ln.n) & mask
	for k := ln.n; k > 0; k-- {
		q := (p - 1) & mask
		prev := &ln.buf[q]
		if !ev.before(&prev.key) {
			break
		}
		ln.buf[p] = *prev
		if prev.slot >= 0 {
			e.arena[prev.slot].pos = p
		}
		p = q
	}
	ln.buf[p] = laneEntry{key: ev.key, slot: slot}
	ev.pos = p
	if ln.n++; ln.n == 1 {
		e.laneAt[i] = ev.at
		e.laneMask |= 1 << i
	}
}

// laneResize moves lane i's entries to the start of a ring of size entries.
func (e *Engine) laneResize(i, size int) {
	ln := &e.lanes[i]
	buf := make([]laneEntry, size)
	for k := int32(0); k < ln.n; k++ {
		ent := ln.buf[(ln.head+k)&int32(len(ln.buf)-1)]
		buf[k] = ent
		if ent.slot >= 0 {
			e.arena[ent.slot].pos = k
		}
	}
	ln.buf, ln.head = buf, 0
}

// laneDrop removes lane i's head entry, then every cancelled entry behind
// it, returning their slots to the free-list: a non-empty lane's head is
// always live.
func (e *Engine) laneDrop(i int) {
	ln := &e.lanes[i]
	mask := int32(len(ln.buf) - 1)
	for {
		ln.head = (ln.head + 1) & mask
		if ln.n--; ln.n == 0 {
			e.laneAt[i] = maxTime
			e.laneMask &^= 1 << i
			return
		}
		h := &ln.buf[ln.head]
		if h.slot >= 0 {
			e.laneAt[i] = h.at
			return
		}
		e.reclaim(^h.slot)
	}
}

// laneCancel stops a slot held in a lane. At the head or the tail the entry
// leaves the ring at once, taking any cancelled entries it uncovers along;
// in between it is marked cancelled, and its slot waits for the entry to
// reach the head.
func (e *Engine) laneCancel(slot int32) {
	ev := &e.arena[slot]
	i := int(ev.bkt - laneBkt)
	ln := &e.lanes[i]
	mask := int32(len(ln.buf) - 1)
	switch p := ev.pos; p {
	case ln.head:
		e.release(slot)
		e.laneDrop(i)
	case (ln.head + ln.n - 1) & mask:
		e.release(slot)
		for ln.n--; ln.buf[(ln.head+ln.n-1)&mask].slot < 0; ln.n-- {
			e.reclaim(^ln.buf[(ln.head+ln.n-1)&mask].slot)
		}
	default:
		e.retire(slot)
		ln.buf[p].slot = ^slot
	}
}

// laneFirst returns the non-empty lane whose head orders first; laneMask
// must be non-zero. One pass over the head times finds the earliest; the
// heads are read only when two lanes tie on it.
func (e *Engine) laneFirst() int {
	best, at, tie := 0, e.laneAt[0], false
	for i := 1; i < laneCount; i++ {
		if t := e.laneAt[i]; t < at {
			best, at, tie = i, t, false
		} else if t == at {
			tie = true
		}
	}
	if !tie {
		return best
	}
	best = -1
	for i, t := range e.laneAt {
		if t == at && e.laneMask&(1<<i) != 0 &&
			(best < 0 || e.lanes[i].first().before(&e.lanes[best].first().key)) {
			best = i
		}
	}
	return best
}

func (e *Engine) siftUp(i int) {
	slot := e.order[i]
	k := &e.arena[slot].key
	for i > 0 {
		parent := (i - 1) / heapArity
		if !k.before(&e.arena[e.order[parent]].key) {
			break
		}
		e.order[i] = e.order[parent]
		e.arena[e.order[i]].pos = int32(i)
		i = parent
	}
	e.order[i] = slot
	e.arena[slot].pos = int32(i)
}

func (e *Engine) siftDown(i int) {
	n := len(e.order)
	slot := e.order[i]
	k := &e.arena[slot].key
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best, bk := first, &e.arena[e.order[first]].key
		for c := first + 1; c < min(first+heapArity, n); c++ {
			if ck := &e.arena[e.order[c]].key; ck.before(bk) {
				best, bk = c, ck
			}
		}
		if !bk.before(k) {
			break
		}
		e.order[i] = e.order[best]
		e.arena[e.order[i]].pos = int32(i)
		i = best
	}
	e.order[i] = slot
	e.arena[slot].pos = int32(i)
}

// removeAt unlinks the slot at heap position i, restoring heap order.
func (e *Engine) removeAt(i int) {
	n := len(e.order) - 1
	last := e.order[n]
	e.order = e.order[:n]
	if i < n {
		e.order[i] = last
		e.arena[last].pos = int32(i)
		e.siftDown(i)
		if e.arena[last].pos == int32(i) {
			e.siftUp(i)
		}
	}
}

// release recycles an arena slot onto the free-list.
func (e *Engine) release(slot int32) {
	e.retire(slot)
	e.reclaim(slot)
}

// retire ends a slot's event: it bumps the generation so stale Timer
// handles become inert, and drops references so fired callbacks and their
// captures can be collected.
func (e *Engine) retire(slot int32) {
	ev := &e.arena[slot]
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.a1 = nil
	ev.a2 = nil
	ev.bkt = -1
	e.pending--
}

// reclaim puts a retired slot on the free-list.
func (e *Engine) reclaim(slot int32) {
	e.arena[slot].next = e.free
	e.free = slot
}

// fire pops and executes the earliest pending event if it is due by limit
// (at < limit, or at <= limit when inclusive), and reports whether it ran
// one. An event that is not due stays pending untouched: a shard may still
// inject an arrival anywhere in [now, next event) after the window closes.
func (e *Engine) fire(limit Time, inclusive bool) bool {
	var next *key
	lane := -1
	if e.laneMask != 0 {
		lane = e.laneFirst()
		next = &e.lanes[lane].first().key
	}
	if len(e.order) > 0 {
		if top := &e.arena[e.order[0]].key; next == nil || top.before(next) {
			lane, next = -1, top
		}
	}
	if next == nil || next.at > limit || next.at == limit && !inclusive {
		return false
	}
	at := next.at
	var slot int32
	if lane < 0 {
		slot = e.order[0]
		e.removeAt(0)
	} else {
		slot = e.lanes[lane].first().slot
		e.laneDrop(lane)
	}
	ev := &e.arena[slot]
	fn, afn, a1, a2, pri, seq := ev.fn, ev.afn, ev.a1, ev.a2, ev.pri, ev.seq
	e.now = at
	e.release(slot)
	e.processed++
	if e.step != nil {
		e.step(at, pri, seq)
	}
	if fn != nil {
		fn()
	} else {
		afn(a1, a2)
	}
	return true
}

// Run executes events until the event queue drains or the clock passes
// until, whichever comes first. It returns the time at which it stopped,
// which is never earlier than the clock was: the clock does not run
// backwards.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.fire(until, true) {
	}
	if e.now < until {
		e.now = until
	}
	return e.now
}

// RunBefore executes every event strictly before until (exclusive, unlike
// Run's inclusive bound) and advances the clock to the window's end. It is
// the conservative-synchronization window primitive for internal/shard: a
// shard may safely run [now, until) exactly when no cross-shard arrival can
// land before until. Callbacks may shrink the window mid-run with
// TightenRunLimit — the shard driver does so when an event emits a boundary
// crossing, because that crossing can wake a neighbour earlier than the
// neighbour's barrier report promised, invalidating the rest of the window.
// It returns the (possibly tightened) window end the clock advanced to.
func (e *Engine) RunBefore(until Time) Time {
	if e.running {
		panic("sim: RunBefore re-entered")
	}
	e.running = true
	e.runLimit = until
	defer func() { e.running = false }()
	for e.fire(e.runLimit, false) {
	}
	if e.now < e.runLimit {
		e.now = e.runLimit
	}
	return e.runLimit
}

// TightenRunLimit lowers the exclusive bound of the RunBefore window
// currently executing. It never raises the bound, never cuts below the
// clock (events at the current timestamp still run to completion, which
// preserves same-timestamp atomicity), and is a no-op outside RunBefore.
func (e *Engine) TightenRunLimit(until Time) {
	if !e.running || until >= e.runLimit {
		return
	}
	if until <= e.now {
		// The clock is already at or past the requested bound; stop as soon
		// as the current timestamp finishes (e.now < runLimit inside the
		// loop, so this never raises the bound).
		until = e.now + 1
	}
	e.runLimit = until
}

// NextEventAt returns the firing time of the earliest pending event. ok is
// false when the queue is empty. Shard drivers use it to agree on the next
// global synchronization window. It is a pure peek: arrivals injected after
// it may still land anywhere from the clock on.
func (e *Engine) NextEventAt() (at Time, ok bool) {
	if len(e.order) > 0 {
		at, ok = e.arena[e.order[0]].at, true
	}
	if e.laneMask != 0 {
		if lat := e.laneAt[e.laneFirst()]; !ok || lat < at {
			at, ok = lat, true
		}
	}
	return at, ok
}

// RunAll executes events until the queue drains, with a safety cap on the
// number of events to catch runaway schedules. It panics if the cap is hit.
func (e *Engine) RunAll(maxEvents uint64) {
	if e.running {
		panic("sim: RunAll re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	start := e.processed
	for e.pending > 0 {
		if e.processed-start >= maxEvents {
			panic(fmt.Sprintf("sim: RunAll exceeded %d events at t=%v", maxEvents, e.now))
		}
		e.fire(maxTime, true)
	}
}
