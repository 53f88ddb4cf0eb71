package mtp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// maxAllocsPerMsg is the Node's allocation budget for one small message,
// counted process-wide, sender and receiver together: the Outgoing handle
// (which holds the engine's send state), its Done channel, and the
// reassembly buffer the receiver hands to OnMessage. It reads about 3.0 on a
// 2-CPU x86-64 host; the bound is that plus 0.25.
const maxAllocsPerMsg = 3.25

// TestNodeAllocsPerMessage runs 512 B messages over a loopback UDP pair one
// at a time, each delivered and acknowledged before the next is sent, and
// holds the process-wide malloc count per message to maxAllocsPerMsg.
func TestNodeAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers on purpose")
	}
	delivered := make(chan struct{}, 1)
	tn := &testNet{seed: 1}
	na, nb, _ := tn.pair(t, Config{Port: 1}, Config{Port: 2, OnMessage: func(Message) { delivered <- struct{}{} }})
	addr := nb.Addr().String()
	payload := make([]byte, 512)
	timeout := time.After(time.Minute) // one timer for the whole test: it is counted too
	send := func() {
		out, err := na.Send(addr, 2, payload)
		if err != nil {
			t.Fatal(err)
		}
		done := out.Done()
		for pending := 2; pending > 0; pending-- {
			select {
			case <-delivered:
			case <-done:
				done = nil // a nil channel blocks: wait for the delivery
			case <-timeout:
				t.Fatal("message neither delivered nor acknowledged within a minute")
			}
		}
	}
	for i := 0; i < 200; i++ { // grow maps, pools and scratch to their steady size
		send()
	}
	const msgs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < msgs; i++ {
		send()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / msgs
	t.Logf("%.3f allocations per message", per)
	if per > maxAllocsPerMsg {
		t.Fatalf("%.3f allocations per 512 B message, budget %.2f", per, maxAllocsPerMsg)
	}
}

// payloadPins counts payload buffers and how many the collector has freed.
type payloadPins struct{ made, freed atomic.Int32 }

// watch puts a finalizer on b's first byte, the start of its allocation.
func (p *payloadPins) watch(b []byte) {
	p.made.Add(1)
	runtime.SetFinalizer(&b[0], func(*byte) { p.freed.Add(1) })
}

// collected collects garbage until every watched buffer has been freed, for
// a few seconds at most, and reports whether it was.
func (p *payloadPins) collected() bool {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		if p.freed.Load() == p.made.Load() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// TestIdleNodePinsNoPayload: once a burst has been delivered and
// acknowledged, two open nodes hold none of its payloads, sent or
// delivered, although the test keeps every finished Outgoing handle. The
// handle carries the engine's send state, and the receiver reuses its inbox
// slices, so either could keep a payload alive if it were not let go.
func TestIdleNodePinsNoPayload(t *testing.T) {
	eachNet(t, 1, func(t *testing.T, tn *testNet) {
		const burst = 32
		var sent, got payloadPins
		delivered := make(chan struct{}, burst)
		na, nb, _ := tn.pair(t, Config{Port: 1}, Config{Port: 2, OnMessage: func(m Message) {
			got.watch(m.Data)
			delivered <- struct{}{}
		}})
		outs := make([]*Outgoing, burst)
		for i := range outs {
			outs[i] = sendWatched(t, na, nb.Addr().String(), 512+i*100, &sent)
		}
		timeout := time.After(10 * time.Second)
		for i := 0; i < burst; i++ {
			select {
			case <-delivered:
			case <-timeout:
				t.Fatalf("%d of %d messages delivered", i, burst)
			}
		}
		for _, o := range outs {
			waitDone(t, o, 10*time.Second)
		}
		if !sent.collected() {
			t.Errorf("%d of %d sent payloads still reachable", sent.made.Load()-sent.freed.Load(), sent.made.Load())
		}
		if !got.collected() {
			t.Errorf("%d of %d delivered payloads still reachable", got.made.Load()-got.freed.Load(), got.made.Load())
		}
		runtime.KeepAlive(outs)
	})
}

// sendWatched sends a fresh payload of size bytes, watched by pins, and
// keeps no reference to it.
func sendWatched(t *testing.T, n *Node, addr string, size int, pins *payloadPins) *Outgoing {
	t.Helper()
	data := make([]byte, size)
	pins.watch(data)
	out, err := n.Send(addr, 2, data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInboxConcurrentDrains: producers stage items under the lock while all
// of them drain at once, as a Node's reader and timer goroutines do. Every
// item is handled exactly once, so no drainer hands back, as the spare, a
// slice another is still walking.
func TestInboxConcurrentDrains(t *testing.T) {
	const producers, per = 4, 2000
	var (
		mu      sync.Mutex
		box     inbox[int]
		handled [producers * per]atomic.Int32
		wg      sync.WaitGroup
	)
	count := func(v int) { handled[v].Add(1) }
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				mu.Lock()
				box.staged = append(box.staged, p*per+i)
				mu.Unlock()
				box.drain(&mu, count)
			}
		}()
	}
	wg.Wait()
	for v := range handled {
		if n := handled[v].Load(); n != 1 {
			t.Fatalf("item %d handled %d times", v, n)
		}
	}
}
