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
// Schedule/Stop/Run perform zero heap allocations. The pending set is a
// monotone radix queue: the clock never runs backwards and nothing is
// scheduled before it, so an event is filed by the highest bit in which its
// time differs from the last popped time, and a pop only compares the
// events of the lowest non-empty bucket. Only the events due at one instant
// are ordered by comparison, in a small 4-ary heap keyed by (priority,
// sequence).
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

// Time is simulated time measured as a duration since the start of the run.
type Time = time.Duration

// event is a scheduled callback, stored by value in the engine arena.
// Exactly one of fn and afn is set. gen disambiguates Timer handles across
// slot reuse.
type event struct {
	at  Time
	pri uint64 // first tiebreak among equal timestamps (0 for plain events)
	seq uint64 // final tiebreak: FIFO among equal (at, pri)
	fn  func()
	afn func(a1, a2 any)
	a1  any
	a2  any
	gen uint32
	// bkt is the queue bucket holding the slot: 0 for the same-instant heap,
	// 1–63 for a radix list, -1 once fired, cancelled, or free.
	bkt int32
	// pos is the slot's heap index in bucket 0. In a list bucket pos and
	// next are the previous and next slots of the list, -1 at either end; a
	// free slot's next is the next free slot.
	pos, next int32
}

// heapArity is the fan-out of the same-instant heap. A 4-ary heap halves the
// tree depth vs binary and keeps the children of a node on one cache line.
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
	e.unlink(t.slot)
	e.release(t.slot)
	return true
}

// Pending reports whether the timer's event is still scheduled.
func (t Timer) Pending() bool {
	if t.en == nil {
		return false
	}
	ev := &t.en.arena[t.slot]
	return ev.gen == t.gen && ev.bkt >= 0
}

// Engine is a discrete-event simulator instance.
type Engine struct {
	now   Time
	seq   uint64
	arena []event // all event slots, live and free
	free  int32   // last freed slot, -1 if none (LIFO for cache locality)
	rng   *rand.Rand

	// The pending set is a monotone radix queue relative to last, the firing
	// time of the most recent pop: last <= now <= the time of every pending
	// event. A pending slot sits in bucket bits.Len64(at ^ last). Bucket 0
	// holds the events due at last, ordered as a 4-ary min-heap keyed by
	// (pri, seq); bucket b >= 1 is an unordered list, linked through the
	// arena, of the events whose highest bit differing from last is b-1.
	// Moving last to the earliest time of the lowest non-empty list sends
	// every event of that list to a lower bucket, so an event is compared a
	// handful of times over its life instead of on every pop.
	last    Time
	order   []int32   // bucket 0: 4-ary min-heap of slots, keyed by (pri, seq)
	head    [64]int32 // buckets 1–63: first slot of each non-empty list
	lo      [64]Time  // buckets 1–63: earliest time in the list where loOK says so
	mask    uint64    // bit b set: bucket b's list is non-empty
	loOK    uint64    // bit b set: lo[b] is exact (a Stop of the earliest clears it)
	pending int

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
	return &Engine{rng: rand.New(rand.NewSource(seed)), free: -1}
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

// Reserve grows the arena and same-instant heap capacity so at least n
// events can be pending at once without reallocation (the radix lists and
// the free-list live in the arena and need nothing more). Topology builders
// call it with an estimate derived from the fabric's element count (hosts,
// links, timers), so a shard's engine reaches its steady-state footprint at
// construction time instead of through repeated doubling during the first
// congestion burst.
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
}

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return e.pending }

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
			// Bucket 0 may hold every slot at once: its heap grows with the
			// arena, so an instant that gathers many events never grows it
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
	e.place(slot)
	return Timer{en: e, slot: slot, gen: ev.gen}
}

// place files a pending slot in bucket bits.Len64(at ^ last): onto the
// same-instant heap when it is due at last, else at the head of its list.
func (e *Engine) place(slot int32) {
	ev := &e.arena[slot]
	b := bits.Len64(uint64(ev.at ^ e.last))
	ev.bkt = int32(b)
	if b == 0 {
		ev.pos = int32(len(e.order))
		e.order = append(e.order, slot)
		e.siftUp(len(e.order) - 1)
		return
	}
	bit := uint64(1) << b
	ev.pos = -1
	if e.mask&bit == 0 {
		e.mask |= bit
		e.loOK |= bit
		e.lo[b] = ev.at
		ev.next = -1
	} else {
		h := e.head[b]
		e.arena[h].pos = slot
		ev.next = h
		if ev.at < e.lo[b] {
			e.lo[b] = ev.at
		}
	}
	e.head[b] = slot
}

// unlink takes a pending slot out of its bucket.
func (e *Engine) unlink(slot int32) {
	ev := &e.arena[slot]
	b := ev.bkt
	if b == 0 {
		e.removeAt(int(ev.pos))
		return
	}
	bit := uint64(1) << b
	switch {
	case ev.pos < 0 && ev.next < 0:
		e.mask &^= bit
	case ev.at == e.lo[b]:
		e.loOK &^= bit
	}
	if ev.pos >= 0 {
		e.arena[ev.pos].next = ev.next
	} else {
		e.head[b] = ev.next
	}
	if ev.next >= 0 {
		e.arena[ev.next].pos = ev.pos
	}
}

// earliest returns the earliest time in the non-empty list bucket b,
// rescanning the list only after a Stop took out its earliest event. The
// shard barrier peeks every round, so a peek that leaves last alone must
// still not pay a scan each time.
func (e *Engine) earliest(b int) Time {
	bit := uint64(1) << b
	if e.loOK&bit == 0 {
		lo := maxTime
		for s := e.head[b]; s >= 0; s = e.arena[s].next {
			lo = min(lo, e.arena[s].at)
		}
		e.lo[b] = lo
		e.loOK |= bit
	}
	return e.lo[b]
}

// peek returns the firing time of the earliest pending event and the bucket
// holding it, without touching the queue.
func (e *Engine) peek() (at Time, b int, ok bool) {
	if len(e.order) > 0 {
		return e.last, 0, true
	}
	if e.mask == 0 {
		return 0, 0, false
	}
	b = bits.TrailingZeros64(e.mask)
	return e.earliest(b), b, true
}

// refill moves last up to at, the earliest time in list bucket b, which
// sends every event of b to a lower bucket and the ones due at at onto the
// same-instant heap.
func (e *Engine) refill(b int, at Time) {
	e.last = at
	e.mask &^= uint64(1) << b
	for s := e.head[b]; s >= 0; {
		next := e.arena[s].next
		e.place(s)
		s = next
	}
}

// less orders two slots of the same-instant heap by (priority, sequence).
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.pri != eb.pri {
		return ea.pri < eb.pri
	}
	return ea.seq < eb.seq
}

func (e *Engine) siftUp(i int) {
	slot := e.order[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.less(slot, e.order[parent]) {
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
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(e.order[c], e.order[best]) {
				best = c
			}
		}
		if !e.less(e.order[best], slot) {
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

// release recycles an arena slot onto the free-list, bumping its generation
// so stale Timer handles become inert, and dropping references so fired
// callbacks and their captures can be collected.
func (e *Engine) release(slot int32) {
	ev := &e.arena[slot]
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.a1 = nil
	ev.a2 = nil
	ev.bkt = -1
	e.pending--
	ev.next = e.free
	e.free = slot
}

// fire pops and executes the earliest pending event if it is due by limit
// (at < limit, or at <= limit when inclusive), and reports whether it ran
// one. It is the one place that advances last: an event that is not due
// leaves the queue exactly as it was, because a shard may still inject an
// arrival anywhere in [now, next event) after the window closes.
func (e *Engine) fire(limit Time, inclusive bool) bool {
	at, b, ok := e.peek()
	if !ok || at > limit || at == limit && !inclusive {
		return false
	}
	if b > 0 {
		e.refill(b, at)
	}
	slot := e.order[0]
	ev := &e.arena[slot]
	fn, afn, a1, a2, pri, seq := ev.fn, ev.afn, ev.a1, ev.a2, ev.pri, ev.seq
	e.now = at
	e.removeAt(0)
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
	at, _, ok = e.peek()
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
