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
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
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
// pseudo-random distance. Not one malloc: the radix lists live in the arena,
// so no bucket grows lazily.
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
