package udpnet

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestWheelFiresNearDeadline(t *testing.T) {
	w := NewWheel(time.Millisecond, 64)
	defer w.Close()
	fired := make(chan time.Duration, 1)
	start := w.Now()
	tm := NewTimer(func() { fired <- w.Now() - start })
	w.Schedule(tm, 10*time.Millisecond)
	select {
	case d := <-fired:
		if d < 5*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("fired after %v, want ~10ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestWheelRotations(t *testing.T) {
	// Delay far beyond one lap of the wheel (8 slots × 1ms = 8ms horizon).
	w := NewWheel(time.Millisecond, 8)
	defer w.Close()
	fired := make(chan time.Duration, 1)
	start := w.Now()
	tm := NewTimer(func() { fired <- w.Now() - start })
	w.Schedule(tm, 40*time.Millisecond)
	select {
	case d := <-fired:
		if d < 30*time.Millisecond {
			t.Fatalf("multi-rotation timer fired early: %v", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("multi-rotation timer never fired")
	}
}

func TestWheelStopAndReschedule(t *testing.T) {
	w := NewWheel(time.Millisecond, 64)
	defer w.Close()
	var fires atomic.Int32
	tm := NewTimer(func() { fires.Add(1) })
	w.Schedule(tm, 5*time.Millisecond)
	w.Stop(tm)
	time.Sleep(30 * time.Millisecond)
	if n := fires.Load(); n != 0 {
		t.Fatalf("stopped timer fired %d times", n)
	}
	// Schedule replaces the pending deadline rather than adding one.
	w.Schedule(tm, 50*time.Millisecond)
	w.Schedule(tm, 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	if n := fires.Load(); n != 1 {
		t.Fatalf("rescheduled timer fired %d times, want 1", n)
	}
	// After an idle span the wheel re-anchors; a fresh schedule still fires.
	time.Sleep(20 * time.Millisecond)
	w.Schedule(tm, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for fires.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("post-idle timer never fired (fires=%d)", fires.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWheelManyTimers(t *testing.T) {
	w := NewWheel(time.Millisecond, 32)
	defer w.Close()
	const n = 200
	var fires atomic.Int32
	for i := 0; i < n; i++ {
		tm := NewTimer(func() { fires.Add(1) })
		w.Schedule(tm, time.Duration(1+i%25)*time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fires.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d timers fired", fires.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWheelNeverFiresEarly: timers whose delays are spread across a tick, armed
// at every phase of the wheel's clock, fire at or after their deadline and
// within a tick of it, plus what a shared host adds to a wake-up.
func TestWheelNeverFiresEarly(t *testing.T) {
	const tick = 250 * time.Microsecond
	const rounds, spread, slack = 8, 16, 20 * time.Millisecond
	w := NewWheel(tick, 256)
	defer w.Close()
	late := make(chan time.Duration, rounds*spread)
	for r := 0; r < rounds; r++ {
		for i := 0; i < spread; i++ {
			d := 2*time.Millisecond + time.Duration(i)*tick/spread
			t0 := w.Now()
			w.Schedule(NewTimer(func() { late <- w.Now() - t0 - d }), d)
		}
		time.Sleep(tick * 3 / 7) // the next round starts at another phase
	}
	for n := 0; n < rounds*spread; n++ {
		select {
		case l := <-late:
			if l < 0 || l > tick+slack {
				t.Errorf("fired %v after its deadline, want within [0, %v]", l, tick+slack)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d timers fired", n, rounds*spread)
		}
	}
}

// TestWheelSleepsToTheArmedSlot: a lone timer 160 ticks out costs the wheel
// goroutine a handful of wake-ups, not one per tick.
func TestWheelSleepsToTheArmedSlot(t *testing.T) {
	w := NewWheel(250*time.Microsecond, 256)
	defer w.Close()
	fired := make(chan struct{})
	w.Schedule(NewTimer(func() { close(fired) }), 40*time.Millisecond)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	w.mu.Lock()
	wakes := w.wakes
	w.mu.Unlock()
	if wakes > 4 {
		t.Fatalf("the wheel advanced %d times for one timer 160 ticks out, want a handful", wakes)
	}
}
