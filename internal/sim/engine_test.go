package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30*time.Microsecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Microsecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Microsecond, func() { order = append(order, 2) })
	e.Run(time.Millisecond)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Processed() != 3 {
		t.Fatalf("Processed = %d", e.Processed())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Microsecond, func() { order = append(order, i) })
	}
	e.Run(time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events reordered: %v", order)
		}
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(2*time.Millisecond, func() { fired = true })
	end := e.Run(time.Millisecond)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	if end != time.Millisecond {
		t.Fatalf("Run returned %v, want 1ms", end)
	}
	if e.pending != 1 {
		t.Fatalf("pending = %d", e.pending)
	}
	// Continue: now the event fires.
	e.Run(3 * time.Millisecond)
	if !fired {
		t.Fatal("event never fired after deadline extension")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if ticks < 100 {
			e.Schedule(10*time.Microsecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run(10 * time.Millisecond)
	if ticks != 100 {
		t.Fatalf("ticks = %d", ticks)
	}
	if got, want := e.Now(), 10*time.Millisecond; got != want {
		t.Fatalf("Now = %v, want %v", got, want)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.Schedule(time.Microsecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run(time.Millisecond)
	if fired {
		t.Fatal("stopped timer fired")
	}

	// Stopping a fired timer is a no-op returning false.
	tm2 := e.Schedule(time.Microsecond, func() {})
	e.Run(2 * time.Millisecond)
	if tm2.Stop() {
		t.Fatal("Stop of fired timer returned true")
	}
	var zero Timer
	if zero.Stop() {
		t.Fatal("Stop of zero timer returned true")
	}
}

func TestTimerStopAfterSlotReuse(t *testing.T) {
	// A fired timer's arena slot is recycled; a stale handle must not
	// cancel the new occupant (generation check).
	e := NewEngine(1)
	tm := e.Schedule(time.Microsecond, func() {})
	e.Run(10 * time.Microsecond)
	fired := false
	e.Schedule(time.Microsecond, func() { fired = true }) // reuses tm's slot
	if tm.Stop() {
		t.Fatal("stale timer Stop returned true")
	}
	e.Run(time.Millisecond)
	if !fired {
		t.Fatal("stale Stop cancelled a recycled slot's event")
	}
}

func TestScheduleArg(t *testing.T) {
	e := NewEngine(1)
	var got []int
	fn := func(a1, a2 any) { got = append(got, *a1.(*int)+a2.(int)) }
	x := 10
	e.ScheduleArg(2*time.Microsecond, fn, &x, 5)
	e.ScheduleArg(time.Microsecond, fn, &x, 1)
	tm := e.ScheduleArg(3*time.Microsecond, fn, &x, 9)
	if !tm.Stop() {
		t.Fatal("Stop of pending ScheduleArg timer returned false")
	}
	e.Run(time.Millisecond)
	if len(got) != 2 || got[0] != 11 || got[1] != 15 {
		t.Fatalf("got = %v", got)
	}
}

func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	fn := func(a1, a2 any) {}
	// Warm up the arena so steady state reuses slots.
	for i := 0; i < 64; i++ {
		e.ScheduleArg(time.Duration(i)*time.Microsecond, fn, nil, nil)
	}
	e.Run(time.Second)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			e.ScheduleArg(time.Duration(i%7)*time.Microsecond, fn, &e.now, nil)
		}
		e.Run(e.Now() + time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/run allocates %v per run, want 0", allocs)
	}
}

// TestReservedChurnZeroAlloc runs bench's engine rung on a fresh engine:
// after Reserve, 4096 events always pending, each rescheduling itself at a
// pseudo-random distance. Not one malloc: the heap and the lane rings are
// sized by Reserve, so nothing grows lazily.
func TestReservedChurnZeroAlloc(t *testing.T) {
	const pending, total = 4096, 100000
	e := NewEngine(1)
	e.Reserve(pending)
	fired := 0
	lcg := uint32(1)
	var tick func(a1, a2 any)
	tick = func(_, _ any) {
		fired++
		if fired+pending <= total {
			lcg = lcg*1664525 + 1013904223
			e.ScheduleArg(time.Duration(1+lcg>>22), tick, nil, nil)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < pending; i++ {
		lcg = lcg*1664525 + 1013904223
		e.ScheduleArg(time.Duration(1+lcg>>22), tick, nil, nil)
	}
	e.RunAll(total)
	runtime.ReadMemStats(&ms1)
	if fired != total {
		t.Fatalf("fired %d events, want %d", fired, total)
	}
	if n := ms1.Mallocs - ms0.Mallocs; n != 0 {
		t.Fatalf("a reserved engine allocated %d times over %d events, want 0", n, fired)
	}
}

// engineBuffers is what an engine has allocated: the arena's length and
// capacity, the heap's capacity and each lane ring's address.
type engineBuffers struct {
	arena, arenaCap, orderCap int
	rings                     [laneCount]*laneEntry
}

func buffersOf(e *Engine) (b engineBuffers) {
	b.arena, b.arenaCap, b.orderCap = len(e.arena), cap(e.arena), cap(e.order)
	for i := range e.lanes {
		b.rings[i] = &e.lanes[i].buf[0]
	}
	return b
}

// sameAlloc reports whether the engine reallocated none of the buffers of b
// since it was taken (the arena may have grown within its capacity).
func (b engineBuffers) sameAlloc(e *Engine) bool {
	now := buffersOf(e)
	now.arena = b.arena
	return now == b
}

// TestLaneRearmChurn re-arms one timer 10^5 times at a lane's delay while
// packet-like events share the lane, so the timer's entry is cancelled at the
// lane's tail and in its middle. Cancelled entries must be reclaimed as the
// lane drains: the arena keeps its warm-up size, and no buffer is
// reallocated after Reserve (the arena, the heap, each lane's ring), which is
// all the engine ever allocates after NewEngine and Reserve.
func TestLaneRearmChurn(t *testing.T) {
	const d, rearms = time.Microsecond, 100000
	e := NewEngine(1)
	e.Reserve(64)
	reserved := buffersOf(e)
	fired, packets := 0, 0
	nop := func(_, _ any) { fired++ }
	var tm Timer
	steps := 0
	step := func() {
		if steps++; steps%3 == 0 {
			e.ScheduleArg(d, nop, nil, nil) // a packet queued behind the timer
			packets++
		}
		tm.Stop()
		tm = e.ScheduleArg(d, nop, nil, nil)
		e.Run(e.Now() + d/8)
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if b := e.arena[tm.slot].bkt; b < laneBkt {
		t.Fatalf("the timer is queued in bucket %d, not in a lane", b)
	}
	warm := len(e.arena)
	for i := 0; i < rearms; i++ {
		step()
	}
	if !reserved.sameAlloc(e) {
		t.Fatalf("the engine reallocated a buffer: %+v after Reserve, %+v after %d re-arms", reserved, buffersOf(e), rearms)
	}
	if len(e.arena) != warm {
		t.Fatalf("over %d re-arms the arena grew from %d to %d slots", rearms, warm, len(e.arena))
	}
	e.RunAll(uint64(e.pending))
	if fired != packets+1 {
		t.Fatalf("%d events fired, want the %d packets and the last timer", fired, packets)
	}
}

// TestReserveOneLane keeps exactly n events queued after Reserve(n), nearly
// all of them at one delay, with entries stopped in the lane's middle still
// holding their slots. The arena and the heap must not be reallocated, and
// the arena must not outgrow n; only the lane that took them all may double
// its ring.
func TestReserveOneLane(t *testing.T) {
	const n, d = 1000, time.Microsecond
	e := NewEngine(1)
	e.Reserve(n)
	reserved := buffersOf(e)
	// queued counts the slots in use: pending events, and stopped ones whose
	// entries are still in a lane.
	queued := func() int {
		q := e.pending
		for i := range e.lanes {
			ln := &e.lanes[i]
			for k := int32(0); k < ln.n; k++ {
				if ln.buf[(ln.head+k)&int32(len(ln.buf)-1)].slot < 0 {
					q++
				}
			}
		}
		return q
	}
	nop := func(_, _ any) {}
	var timers []Timer
	held, most, lane := 0, 0, int32(0)
	for round := 0; round < 40; round++ {
		for queued() < n {
			timers = append(timers, e.ScheduleArg(d, nop, nil, nil))
		}
		lane = e.arena[timers[len(timers)-1].slot].bkt - laneBkt
		most = max(most, int(e.lanes[lane].n))
		for k := len(timers) - 2; k > len(timers)-n/2; k -= 3 {
			if ev := &e.arena[timers[k].slot]; isPending(timers[k]) && ev.bkt >= laneBkt {
				ln := &e.lanes[ev.bkt-laneBkt]
				if ev.pos != ln.head && ev.pos != (ln.head+ln.n-1)&int32(len(ln.buf)-1) {
					held++
				}
			}
			timers[k].Stop()
		}
		for queued() < n {
			timers = append(timers, e.ScheduleArg(d, nop, nil, nil))
		}
		e.Run(e.Now() + d/4)
	}
	if most < n-8 || held == 0 {
		t.Fatalf("one lane held at most %d of %d events, %d stops in a lane's middle", most, n, held)
	}
	after := buffersOf(e)
	after.arena, after.rings[lane] = reserved.arena, reserved.rings[lane]
	if after != reserved {
		t.Fatalf("the engine reallocated a buffer: %+v after Reserve(%d), %+v after", reserved, n, buffersOf(e))
	}
	if len(e.arena) > n {
		t.Fatalf("the arena grew to %d slots with %d events queued", len(e.arena), n)
	}
}

func TestTimerStopMiddleOfHeap(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	var timers []Timer
	for i := 0; i < 20; i++ {
		i := i
		timers = append(timers, e.Schedule(time.Duration(i+1)*time.Microsecond, func() {
			fired = append(fired, i)
		}))
	}
	// Cancel every third timer.
	want := []int{}
	for i := 0; i < 20; i++ {
		if i%3 == 0 {
			timers[i].Stop()
		} else {
			want = append(want, i)
		}
	}
	e.Run(time.Millisecond)
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestScheduleAtClampsPast(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Millisecond, func() {
		// Scheduling in the past must clamp to now, not run immediately
		// or corrupt the clock.
		e.ScheduleAt(0, func() {
			if e.Now() != time.Millisecond {
				t.Errorf("past event ran at %v", e.Now())
			}
		})
	})
	e.Run(2 * time.Millisecond)
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(-5*time.Second, func() { ran = true })
	e.Run(time.Millisecond)
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
}

func TestRunAllDrains(t *testing.T) {
	e := NewEngine(1)
	n := 0
	for i := 0; i < 50; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() { n++ })
	}
	e.RunAll(1000)
	if n != 50 {
		t.Fatalf("n = %d", n)
	}
}

func TestRunAllPanicsOnRunaway(t *testing.T) {
	e := NewEngine(1)
	var loop func()
	loop = func() { e.Schedule(time.Microsecond, loop) }
	e.Schedule(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("RunAll did not panic on runaway schedule")
		}
	}()
	e.RunAll(100)
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var stamps []Time
		for i := 0; i < 200; i++ {
			d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
			e.Schedule(d, func() { stamps = append(stamps, e.Now()) })
		}
		e.Run(time.Second)
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stamp %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestQuickMonotonicClock: for any random schedule, events fire in
// non-decreasing time order and the clock never goes backwards.
func TestQuickMonotonicClock(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		var stamps []Time
		n := 1 + r.Intn(100)
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(r.Intn(10000)) * time.Nanosecond
			e.Schedule(delays[i], func() { stamps = append(stamps, e.Now()) })
		}
		e.Run(time.Second)
		if len(stamps) != n {
			return false
		}
		if !sort.SliceIsSorted(stamps, func(i, j int) bool { return stamps[i] < stamps[j] }) {
			return false
		}
		// Every fire time equals its requested delay.
		sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
		for i := range stamps {
			if stamps[i] != delays[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j%97)*time.Microsecond, func() {})
		}
		e.Run(time.Second)
	}
}

// TestEngineLanesVsReference is TestEngineStressVsReference with delays
// drawn from hop, and must reach every lane case: an event queued ahead of
// equal-time entries of higher priority, ties between lanes broken by
// priority and by sequence, ties between a lane and the heap broken by
// priority and by sequence, a Stop at a lane's head, tail and middle, and
// injections queued in a lane.
func TestEngineLanesVsReference(t *testing.T) {
	var sum laneCover
	for seed := int64(1); seed <= 8; seed++ {
		c := driveOrder(t, &randSource{r: rand.New(rand.NewSource(seed)), steps: 3000}, seed, true)
		sum.pushes += c.pushes
		sum.tieInserts += c.tieInserts
		sum.crossTies += c.crossTies
		sum.crossPriSeq += c.crossPriSeq
		sum.heapTies += c.heapTies
		sum.heapTiesSeq += c.heapTiesSeq
		sum.stopHead += c.stopHead
		sum.stopTail += c.stopTail
		sum.stopMiddle += c.stopMiddle
		sum.injected += c.injected
	}
	t.Logf("lane cases reached: %+v", sum)
	if sum.pushes == 0 || sum.tieInserts == 0 || sum.crossTies == 0 || sum.crossPriSeq == 0 ||
		sum.heapTies == 0 || sum.heapTiesSeq == 0 ||
		sum.stopHead == 0 || sum.stopTail == 0 || sum.stopMiddle == 0 || sum.injected == 0 {
		t.Fatalf("the hop drive missed a lane case: %+v", sum)
	}
}

// hopMix draws a delay the way sim_incast's MTP row schedules: 97 % of its
// schedules use one of hopDelays (1 µs propagation 49.2 %, 1.248 µs data
// serialization 25.1 %, 116 ns and 103 ns ACK serialization 15.5 % and
// 7.2 %), the rest a timer-like delay from 1 ns to 1 ms. Propagation carries
// a link-rank priority, as a delivery does.
func hopMix(r uint32) (Time, uint64) {
	switch p := r % 1000; {
	case p < 492:
		return hopDelays[0], 1<<32 + uint64(r>>10%512)
	case p < 743:
		return hopDelays[1], 0
	case p < 898:
		return hopDelays[2], 0
	case p < 970:
		return hopDelays[3], 0
	default:
		return Time(1 + r>>12%(1<<20)), 0
	}
}

// churn runs b.N events on e with pending always scheduled, each event
// rescheduling itself with the delay and priority draw returns, and times
// all but the warm-up that brings the arena (and the lanes) to steady state.
func churn(b *testing.B, e *Engine, pending int, draw func(uint32) (Time, uint64)) {
	warm := 64 * pending
	total, fired := warm+b.N, 0
	lcg := uint32(1)
	var tick func(a1, a2 any)
	tick = func(_, _ any) {
		if fired++; fired == warm {
			b.ResetTimer()
		}
		if fired+pending <= total {
			lcg = lcg*1664525 + 1013904223
			d, pri := draw(lcg)
			e.ScheduleArgPri(d, pri, tick, nil, nil)
		}
	}
	for i := 0; i < pending; i++ {
		lcg = lcg*1664525 + 1013904223
		d, pri := draw(lcg)
		e.ScheduleArgPri(d, pri, tick, nil, nil)
	}
	b.ReportAllocs()
	e.RunAll(uint64(total))
}

// BenchmarkEngineHopMix times the engine alone on a simulated network's
// traffic: 2048 events always pending, each rescheduling itself with a delay
// and priority from hopMix. Bench's sim.ns_per_event rung draws uniform
// random delays instead, which no simulated network produces.
func BenchmarkEngineHopMix(b *testing.B) {
	e := NewEngine(1)
	e.Reserve(2048)
	churn(b, e, 2048, hopMix)
}

// BenchmarkEngineUniform is the shape of bench's sim.ns_per_event rung: 4096
// events always pending, each rescheduling itself 1 ns to 1 µs ahead.
func BenchmarkEngineUniform(b *testing.B) {
	churn(b, NewEngine(1), 4096, func(r uint32) (Time, uint64) { return Time(1 + r>>22), 0 })
}

// isPending reports whether t's event is still scheduled.
func isPending(t Timer) bool {
	if t.en == nil {
		return false
	}
	ev := &t.en.arena[t.slot]
	return ev.gen == t.gen && ev.bkt >= 0
}
