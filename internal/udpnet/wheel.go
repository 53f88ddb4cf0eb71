package udpnet

import (
	"sync"
	"time"
)

// Wheel is a hashed timing wheel driving protocol timers off real time. One
// goroutine advances the wheel one slot per tick and fires due timers;
// scheduling, rescheduling, and cancelling are O(1) under a short mutex. A
// wheel is shared by every transport (endpoint) of a process, so a
// deployment with many endpoints pays one ticker, not one runtime timer per
// endpoint per rearm.
//
// Resolution is one tick: a timer scheduled for delay d fires within
// (d-tick, d+tick] of real time. That is the right trade for protocol
// timeouts (RTOs are tens of ticks) and the MTP endpoint explicitly
// tolerates early firings — it re-derives its deadlines on every OnTimer
// call and re-arms.
type Wheel struct {
	tick  time.Duration
	start time.Time

	mu       sync.Mutex
	slots    [][]*Timer
	cur      int   // slot index last processed
	advanced int64 // total slots processed since start
	timers   int   // scheduled timer count
	closed   bool

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	fired []*Timer // scratch: due timers collected under mu, run outside it
}

// Timer is one schedulable callback. A Timer belongs to at most one wheel
// and may be rescheduled freely; Schedule replaces any pending deadline.
type Timer struct {
	fn   func()
	slot int // -1 when not scheduled
	idx  int // position in its slot for O(1) swap-removal
	rot  int // full wheel rotations remaining before firing
}

// NewTimer returns an unscheduled timer that runs fn when it fires. fn is
// called from the wheel goroutine; it must not block for long and may call
// back into the wheel.
func NewTimer(fn func()) *Timer { return &Timer{fn: fn, slot: -1} }

// NewWheel starts a timing wheel with the given tick granularity and slot
// count. Zero values choose 1ms × 256 slots (a 256ms horizon before timers
// take extra rotations — comfortably past datacenter RTOs).
func NewWheel(tick time.Duration, slots int) *Wheel {
	if tick <= 0 {
		tick = time.Millisecond
	}
	if slots <= 0 {
		slots = 256
	}
	w := &Wheel{
		tick:  tick,
		start: time.Now(),
		slots: make([][]*Timer, slots),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

// Now returns the wheel's monotonic clock: time elapsed since NewWheel.
func (w *Wheel) Now() time.Duration { return time.Since(w.start) }

// Tick returns the wheel's resolution.
func (w *Wheel) Tick() time.Duration { return w.tick }

// Close stops the wheel goroutine. Pending timers never fire.
func (w *Wheel) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
}

// Schedule (re-)arms t to fire after delay d. A non-positive d fires on the
// next tick.
func (w *Wheel) Schedule(t *Timer, d time.Duration) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if t.slot >= 0 {
		w.remove(t)
	}
	if w.timers == 0 {
		// The wheel goroutine fast-forwards through idle spans without
		// touching cur; re-anchor the wheel position to wall time before
		// placing the first timer so its offset is measured from now.
		w.resync()
	}
	ticks := int((d + w.tick - 1) / w.tick)
	if ticks < 1 {
		ticks = 1
	}
	n := len(w.slots)
	t.rot = (ticks - 1) / n
	slot := (w.cur + ticks) % n
	t.slot = slot
	t.idx = len(w.slots[slot])
	w.slots[slot] = append(w.slots[slot], t)
	w.timers++
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Stop cancels t if pending; a timer mid-fire may still run once.
func (w *Wheel) Stop(t *Timer) {
	w.mu.Lock()
	if t.slot >= 0 {
		w.remove(t)
	}
	w.mu.Unlock()
}

// remove unlinks t from its slot. Caller holds mu.
func (w *Wheel) remove(t *Timer) {
	s := w.slots[t.slot]
	last := len(s) - 1
	s[t.idx] = s[last]
	s[t.idx].idx = t.idx
	s[last] = nil
	w.slots[t.slot] = s[:last]
	t.slot = -1
	w.timers--
}

// resync jumps the wheel position to the current wall-clock slot without
// processing the skipped (empty) slots. Caller holds mu and guarantees no
// timers are scheduled.
func (w *Wheel) resync() {
	target := int64(time.Since(w.start) / w.tick)
	if target > w.advanced {
		w.cur = int((int64(w.cur) + target - w.advanced) % int64(len(w.slots)))
		w.advanced = target
	}
}

// run is the wheel goroutine: sleep to the next tick boundary, advance, fire.
func (w *Wheel) run() {
	defer w.wg.Done()
	sleep := time.NewTimer(time.Hour)
	defer sleep.Stop()
	for {
		w.mu.Lock()
		idle := w.timers == 0
		next := w.start.Add(time.Duration(w.advanced+1) * w.tick)
		w.mu.Unlock()
		if idle {
			select {
			case <-w.wake:
				continue
			case <-w.done:
				return
			}
		}
		d := time.Until(next)
		if d > 0 {
			sleep.Reset(d)
			select {
			case <-sleep.C:
			case <-w.done:
				return
			}
		}
		w.advance()
	}
}

// advance processes every slot whose tick boundary has passed, collecting
// due timers under the lock and firing them outside it.
func (w *Wheel) advance() {
	w.mu.Lock()
	target := int64(time.Since(w.start) / w.tick)
	for w.advanced < target {
		w.advanced++
		w.cur = (w.cur + 1) % len(w.slots)
		for i := 0; i < len(w.slots[w.cur]); {
			t := w.slots[w.cur][i]
			if t.rot > 0 {
				t.rot--
				i++
				continue
			}
			w.remove(t) // swap-removes in place: re-examine index i
			w.fired = append(w.fired, t)
		}
		if w.timers == 0 {
			// Nothing left anywhere: let run() block instead of spinning
			// through empty catch-up slots.
			w.advanced = target
			break
		}
	}
	fired := w.fired
	w.fired = w.fired[:0]
	w.mu.Unlock()
	for i, t := range fired {
		fired[i] = nil
		t.fn()
	}
}
