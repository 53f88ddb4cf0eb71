package udpnet

import (
	"math"
	"sync"
	"time"
)

// Wheel is a hashed timing wheel driving protocol timers off real time. One
// goroutine advances the wheel and fires due timers; scheduling,
// rescheduling, and cancelling are O(1) under a short mutex. A wheel is
// shared by every transport (endpoint) of a process, so a deployment with
// many endpoints pays one goroutine, not one runtime timer per endpoint per
// rearm.
//
// A timer never fires early: one scheduled for delay d goes into the slot of
// the first tick boundary at or after now+d, counted on the wheel's absolute
// clock, and fires within [d, d+tick) of real time plus the wake-up latency.
// The wheel goroutine sleeps until the first slot that holds a timer due in
// the coming rotation (a full rotation when none is), not tick by tick; a
// Schedule earlier than that slot wakes it, and no other Schedule does.
type Wheel struct {
	tick  time.Duration
	start time.Time

	mu       sync.Mutex
	slots    [][]*Timer
	advanced int64 // absolute slots processed since start
	next     int64 // absolute slot the wheel goroutine sleeps to; idle when none
	timers   int   // scheduled timer count
	wakes    int   // advance calls, for tests
	closed   bool

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	fired []*Timer // scratch: due timers collected under mu, run outside it
}

// idle is Wheel.next while no timer is scheduled: any Schedule is earlier.
const idle = math.MaxInt64

// Timer is one schedulable callback. A Timer belongs to at most one wheel
// and may be rescheduled freely; Schedule replaces any pending deadline.
type Timer struct {
	fn   func()
	at   int64 // absolute slot it is due in
	slot int   // at modulo the slot count; -1 when not scheduled
	idx  int   // position in its slot for O(1) swap-removal
}

// NewTimer returns an unscheduled timer that runs fn when it fires. fn is
// called from the wheel goroutine; it must not block for long and may call
// back into the wheel.
func NewTimer(fn func()) *Timer { return &Timer{fn: fn, slot: -1} }

// NewWheel starts a timing wheel with the given tick granularity and slot
// count. Zero values choose 250µs × 256 slots (a 64ms horizon before timers
// take extra rotations — past datacenter RTOs; a longer timer costs one wake
// per rotation).
func NewWheel(tick time.Duration, slots int) *Wheel {
	if tick <= 0 {
		tick = 250 * time.Microsecond
	}
	if slots <= 0 {
		slots = 256
	}
	w := &Wheel{
		tick:  tick,
		start: time.Now(),
		slots: make([][]*Timer, slots),
		next:  idle,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

// Now returns the wheel's monotonic clock: time elapsed since NewWheel.
func (w *Wheel) Now() time.Duration { return time.Since(w.start) }

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
func (w *Wheel) Schedule(t *Timer, d time.Duration) { w.scheduleAt(t, w.Now()+d) }

// scheduleAt (re-)arms t to fire at wheel time at: in the slot of the first
// tick boundary at or after it, or the next slot to be processed if that one
// has gone by.
func (w *Wheel) scheduleAt(t *Timer, at time.Duration) {
	slot := int64((at + w.tick - 1) / w.tick)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if t.slot >= 0 {
		w.remove(t)
	}
	slot = max(slot, w.advanced+1)
	t.at = slot
	t.slot = int(slot % int64(len(w.slots)))
	t.idx = len(w.slots[t.slot])
	w.slots[t.slot] = append(w.slots[t.slot], t)
	w.timers++
	earlier := slot < w.next
	if earlier {
		w.next = slot
	}
	w.mu.Unlock()
	if earlier {
		select {
		case w.wake <- struct{}{}:
		default:
		}
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

// run is the wheel goroutine: sleep to the next armed slot, advance, fire.
func (w *Wheel) run() {
	defer w.wg.Done()
	sleep := time.NewTimer(time.Hour)
	sleep.Stop()
	for {
		w.mu.Lock()
		next := w.next
		w.mu.Unlock()
		if next == idle {
			select {
			case <-w.wake:
				continue
			case <-w.done:
				return
			}
		}
		if d := time.Until(w.start.Add(time.Duration(next) * w.tick)); d > 0 {
			sleep.Reset(d)
			select {
			case <-sleep.C:
			case <-w.wake:
				// An earlier timer: sleep to its slot instead.
				if !sleep.Stop() {
					select {
					case <-sleep.C:
					default:
					}
				}
				continue
			case <-w.done:
				return
			}
		}
		w.advance()
	}
}

// advance processes every slot whose tick boundary has passed, collecting
// due timers under the lock and firing them outside it, and picks the slot to
// sleep to next.
func (w *Wheel) advance() {
	w.mu.Lock()
	w.wakes++
	n := int64(len(w.slots))
	target := int64(time.Since(w.start) / w.tick)
	// One rotation visits every slot: a longer gap has nothing more to find.
	w.advanced = max(w.advanced, target-n)
	for w.advanced < target && w.timers > 0 {
		w.advanced++
		s := int(w.advanced % n)
		for i := 0; i < len(w.slots[s]); {
			t := w.slots[s][i]
			if t.at > w.advanced {
				i++ // a later rotation's
				continue
			}
			w.remove(t) // swap-removes in place: re-examine index i
			w.fired = append(w.fired, t)
		}
	}
	w.advanced = target
	w.next = w.firstArmed()
	fired := w.fired
	w.fired = w.fired[:0]
	w.mu.Unlock()
	for i, t := range fired {
		fired[i] = nil
		t.fn()
	}
}

// firstArmed returns the first slot after advanced that holds a timer due in
// it, looking one rotation ahead: a full rotation on when none is, idle when
// no timer is scheduled. Caller holds mu.
func (w *Wheel) firstArmed() int64 {
	if w.timers == 0 {
		return idle
	}
	n := int64(len(w.slots))
	for a := w.advanced + 1; a <= w.advanced+n; a++ {
		for _, t := range w.slots[a%n] {
			if t.at <= a {
				return a
			}
		}
	}
	return w.advanced + n
}
