package platform

// The launcher half of one experiment point. Where the first version of
// runPoint was a straight-line script (accept everyone, expect ready,
// expect done, ...), this one is an event loop: every worker connection
// has its own reader goroutine feeding one channel, and the main loop
// advances through the phases while reacting to deaths. That is what
// makes the platform crash-tolerant — a SIGKILLed worker surfaces as an
// EOF event within milliseconds, a wedged one as a heartbeat stall
// within HeartbeatTimeout, and the launcher salvages the survivors
// instead of blocking out the full point timeout.

import (
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"mtp/internal/chaos"
)

// wevent is one occurrence on a worker's control connection.
type wevent struct {
	index int
	cc    *ctrlConn // the connection it happened on; stale conns are ignored
	msg   ctrlMsg
	err   error // terminal: EOF, reset, or a framing error
	stall bool  // no traffic (not even hb) for the heartbeat timeout
}

// helloEvt is a freshly accepted, identified worker connection.
type helloEvt struct {
	index int
	cc    *ctrlConn
}

// readWorker pumps one worker's control connection into the launcher's
// event channel. Heartbeats refresh the read deadline and are swallowed;
// a deadline expiry becomes a stall event (the connection stays usable —
// brownouts recover); any other error is terminal. Partial lines read
// before a deadline expiry are kept, so a heartbeat split across a stall
// is not corrupted.
func readWorker(index int, cc *ctrlConn, hbTimeout time.Duration, events chan<- wevent, stop <-chan struct{}) {
	var buf []byte
	emit := func(ev wevent) bool {
		select {
		case events <- ev:
			return true
		case <-stop:
			return false
		}
	}
	for {
		_ = cc.c.SetReadDeadline(time.Now().Add(hbTimeout))
		chunk, err := cc.r.ReadBytes('\n')
		buf = append(buf, chunk...)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if !emit(wevent{index: index, cc: cc, stall: true}) {
					return
				}
				continue
			}
			emit(wevent{index: index, cc: cc, err: err})
			return
		}
		var m ctrlMsg
		if jerr := json.Unmarshal(buf, &m); jerr != nil {
			emit(wevent{index: index, cc: cc, err: fmt.Errorf("control: bad message %q: %w", buf, jerr)})
			return
		}
		buf = buf[:0]
		if m.Type == "hb" {
			continue
		}
		if !emit(wevent{index: index, cc: cc, msg: m}) {
			return
		}
	}
}

// acceptLoop turns raw control connections into identified hello events.
// It runs until the listener closes; respawned workers register through
// the same path as the initial fleet.
func acceptLoop(ln net.Listener, helloTimeout time.Duration, hellos chan<- helloEvt, stop <-chan struct{}) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			cc := newCtrlConn(c)
			m, err := cc.expect("hello", helloTimeout)
			if err != nil {
				cc.Close()
				return
			}
			select {
			case hellos <- helloEvt{index: m.Index, cc: cc}:
			case <-stop:
				cc.Close()
			}
		}(c)
	}
}

// pointState is the slice of launcher state shared with the chaos
// executor goroutine: the live process handles and the brownout windows
// during which a silent worker is frozen, not dead.
type pointState struct {
	mu            sync.Mutex
	procs         []Proc
	brownoutUntil []time.Time
}

func (st *pointState) proc(i int) Proc {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.procs[i]
}

func (st *pointState) setProc(i int, p Proc) {
	st.mu.Lock()
	st.procs[i] = p
	st.mu.Unlock()
}

func (st *pointState) setBrownout(i int, until time.Time) {
	st.mu.Lock()
	st.brownoutUntil[i] = until
	st.mu.Unlock()
}

func (st *pointState) inBrownout(i int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return time.Now().Before(st.brownoutUntil[i])
}

// runChaos executes the schedule against the point's workers, offsets
// relative to t0 (the start command). Kills are abrupt (SIGKILL), stops
// are brownouts (SIGSTOP, then SIGCONT after the event's duration), and
// respawns relaunch the victim, which re-registers over the control
// channel under a fresh incarnation epoch.
func (st *pointState) runChaos(sched chaos.Schedule, t0 time.Time, spawn SpawnFunc,
	controlAddr string, hbTimeout time.Duration, stop <-chan struct{}, logf func(string, ...any)) {
	for _, e := range sched {
		if wait := time.Until(t0.Add(e.At)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-stop:
				return
			}
		}
		pr := st.proc(e.Worker)
		if pr == nil {
			continue
		}
		switch e.Action {
		case chaos.Kill:
			logf("chaos: kill worker %d at +%v", e.Worker, e.At)
			pr.Kill()
			go func() { _ = pr.Wait() }()
		case chaos.Stop:
			s, ok := pr.(Signaler)
			if !ok || sigStop == nil {
				logf("chaos: worker %d is not signalable, skipping %v", e.Worker, e)
				continue
			}
			// The grace past the thaw lets the first post-brownout
			// heartbeat land before a stall can be read as death.
			st.setBrownout(e.Worker, time.Now().Add(e.Dur+2*hbTimeout))
			logf("chaos: brownout worker %d for %v at +%v", e.Worker, e.Dur, e.At)
			_ = s.Signal(sigStop)
			time.AfterFunc(e.Dur, func() { _ = s.Signal(sigCont) })
		case chaos.Respawn:
			logf("chaos: respawn worker %d at +%v", e.Worker, e.At)
			pr.Kill()
			go func() { _ = pr.Wait() }()
			np, err := spawn(e.Worker, controlAddr)
			if err != nil {
				logf("chaos: respawn worker %d: %v", e.Worker, err)
				continue
			}
			st.setProc(e.Worker, np)
		}
	}
}

// Worker lifecycle states inside runPoint's event loop.
const (
	wLaunched = iota // spawned, not yet registered
	wUp              // control connection live
	wDone            // result received
	wDead            // connection died or heartbeats stopped
)

// runPoint drives one point through the control-channel state machine.
func runPoint(p Point, opts Options, logf func(string, ...any)) (PointResult, error) {
	res := PointResult{Point: p}
	n := p.Procs

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer ln.Close()
	controlAddr := ln.Addr().String()

	st := &pointState{procs: make([]Proc, n), brownoutUntil: make([]time.Time, n)}
	conns := make([]*ctrlConn, n)
	stop := make(chan struct{})
	defer func() {
		close(stop)
		for _, cc := range conns {
			if cc != nil {
				cc.Close()
			}
		}
		st.mu.Lock()
		procs := append([]Proc(nil), st.procs...)
		st.mu.Unlock()
		for _, pr := range procs {
			if pr != nil {
				pr.Kill()
			}
		}
		for _, pr := range procs {
			if pr != nil {
				_ = pr.Wait()
			}
		}
	}()

	for i := 0; i < n; i++ {
		pr, err := opts.Spawn(i, controlAddr)
		if err != nil {
			return res, fmt.Errorf("spawn worker %d: %w", i, err)
		}
		st.setProc(i, pr)
	}

	hellos := make(chan helloEvt, 2*n)
	events := make(chan wevent, 8*n)
	go acceptLoop(ln, phaseTimeout, hellos, stop)

	state := make([]int, n)
	result := make([]*WorkerResult, n)
	deathErr := make([]string, n)
	respawned := make([]bool, n)

	register := func(h helloEvt) error {
		if h.index < 0 || h.index >= n {
			h.cc.Close()
			return fmt.Errorf("bad worker index %d", h.index)
		}
		if old := conns[h.index]; old != nil {
			old.Close()
		}
		conns[h.index] = h.cc
		go readWorker(h.index, h.cc, opts.HeartbeatTimeout, events, stop)
		return h.cc.send(ctrlMsg{Type: "setup", Point: &p})
	}

	// Phase 1 — registration and readiness: every worker hellos, gets its
	// setup, and reports ready; the sink's ready carries the data-plane
	// address. Pre-start there are no survivors to salvage, so any death
	// here fails the point — but within phaseTimeout, not PointTimeout.
	var sinkAddr string
	phaseEnd := time.Now().Add(phaseTimeout)
	for readyCount := 0; readyCount < n; {
		select {
		case h := <-hellos:
			if err := register(h); err != nil {
				return res, err
			}
			if state[h.index] == wLaunched {
				state[h.index] = wUp
			}
		case ev := <-events:
			switch {
			case ev.cc != conns[ev.index]:
				// A superseded connection's parting noise.
			case ev.err != nil:
				return res, fmt.Errorf("worker %d died during setup: %v", ev.index, ev.err)
			case ev.stall:
				return res, fmt.Errorf("worker %d silent for %v during setup", ev.index, opts.HeartbeatTimeout)
			case ev.msg.Type == "ready":
				readyCount++
				if ev.index == 0 {
					sinkAddr = ev.msg.Addr
				}
			case ev.msg.Type == "error":
				return res, fmt.Errorf("worker %d failed: %s", ev.index, ev.msg.Err)
			default:
				return res, fmt.Errorf("worker %d: unexpected %q during setup", ev.index, ev.msg.Type)
			}
		case <-time.After(time.Until(phaseEnd)):
			return res, fmt.Errorf("setup phase timed out after %v", phaseTimeout)
		}
	}
	if sinkAddr == "" {
		return res, fmt.Errorf("sink reported no address")
	}
	for i := 0; i < n; i++ {
		if err := conns[i].send(ctrlMsg{Type: "start", Addr: sinkAddr}); err != nil {
			return res, fmt.Errorf("start worker %d: %w", i, err)
		}
	}
	t0 := time.Now()
	if len(opts.Chaos) > 0 {
		go st.runChaos(opts.Chaos, t0, opts.Spawn, controlAddr, opts.HeartbeatTimeout, stop, logf)
	}

	// Phase 2 — the load run: wait until every generator has either
	// reported a result or died. Generator deaths degrade the point; a
	// sink death voids it (nothing to audit against).
	pendingGens := n - 1
	markDead := func(i int, cause string) error {
		if i == 0 {
			return fmt.Errorf("sink died mid-run: %s", cause)
		}
		switch state[i] {
		case wUp:
			state[i] = wDead
			deathErr[i] = cause
			pendingGens--
			res.Degraded = true
			logf("worker %d died mid-run (%s); continuing with survivors", i, cause)
		case wDone:
			// Result already in; a post-completion death doesn't void it.
			deathErr[i] = cause
			res.Degraded = true
		}
		return nil
	}
	runEnd := t0.Add(opts.PointTimeout)
	for pendingGens > 0 {
		select {
		case h := <-hellos:
			// A respawned incarnation re-registering mid-run.
			prev := state[h.index]
			if err := register(h); err != nil {
				return res, err
			}
			respawned[h.index] = true
			res.Degraded = true
			if prev == wDead {
				state[h.index] = wUp
				pendingGens++
			}
			logf("worker %d respawned; rerunning its workload", h.index)
		case ev := <-events:
			if ev.cc != conns[ev.index] {
				continue
			}
			switch {
			case ev.err != nil:
				if err := markDead(ev.index, ev.err.Error()); err != nil {
					return res, err
				}
			case ev.stall:
				if st.inBrownout(ev.index) {
					continue
				}
				if err := markDead(ev.index, fmt.Sprintf("no heartbeat for %v", opts.HeartbeatTimeout)); err != nil {
					return res, err
				}
			case ev.msg.Type == "ready":
				// A respawned worker finished setup; point it at the sink.
				if err := ev.cc.send(ctrlMsg{Type: "start", Addr: sinkAddr}); err != nil {
					if err := markDead(ev.index, err.Error()); err != nil {
						return res, err
					}
				}
			case ev.msg.Type == "done":
				if ev.msg.Result == nil {
					return res, fmt.Errorf("worker %d: done without result", ev.index)
				}
				if state[ev.index] == wUp && ev.index != 0 {
					state[ev.index] = wDone
					result[ev.index] = ev.msg.Result
					pendingGens--
				}
			case ev.msg.Type == "error":
				if err := markDead(ev.index, ev.msg.Err); err != nil {
					return res, err
				}
			}
		case <-time.After(time.Until(runEnd)):
			return res, fmt.Errorf("run phase timed out after %v (%d generators still pending)", opts.PointTimeout, pendingGens)
		}
	}

	// Phase 3 — drain the sink: its counters are final once every
	// surviving generator's messages are end-to-end acknowledged.
	if err := conns[0].send(ctrlMsg{Type: "stop"}); err != nil {
		return res, fmt.Errorf("stop sink: %w", err)
	}
	drainEnd := time.Now().Add(phaseTimeout)
	var sinkRes *WorkerResult
	for sinkRes == nil {
		select {
		case h := <-hellos:
			h.cc.Close() // too late to participate; teardown reaps the proc
		case ev := <-events:
			if ev.cc != conns[ev.index] {
				continue
			}
			switch {
			case ev.index != 0:
				// Generators idling out or dying post-done; nothing to do.
			case ev.msg.Type == "done" && ev.msg.Result != nil:
				sinkRes = ev.msg.Result
			case ev.err != nil:
				return res, fmt.Errorf("sink died during drain: %v", ev.err)
			case ev.msg.Type == "error":
				return res, fmt.Errorf("sink failed during drain: %s", ev.msg.Err)
			case ev.stall:
				if !st.inBrownout(0) {
					return res, fmt.Errorf("sink silent for %v during drain", opts.HeartbeatTimeout)
				}
			}
		case <-time.After(time.Until(drainEnd)):
			return res, fmt.Errorf("sink drain timed out after %v", phaseTimeout)
		}
	}
	for i := 1; i < n; i++ {
		if conns[i] != nil && state[i] != wDead {
			_ = conns[i].send(ctrlMsg{Type: "stop"})
		}
	}

	// Merge and audit. The exactly-once gate is per generator, against
	// the sink's per-source-port counts: a survivor must match exactly
	// even when another worker died mid-run; a respawned worker's first
	// incarnation may have landed deliveries beyond what its reporting
	// incarnation confirmed, so its bound is a floor.
	var h hist
	var sent, completed, timeouts int
	var mallocs uint64
	res.CPUSec = sinkRes.CPUSec
	res.RingDrops = sinkRes.RingDrops
	res.Outcomes = make([]WorkerOutcome, n)
	res.Outcomes[0] = WorkerOutcome{Index: 0, Status: "ok"}
	var gateErr error
	for i := 1; i < n; i++ {
		o := &res.Outcomes[i]
		o.Index = i
		o.Err = deathErr[i]
		wr := result[i]
		if wr == nil {
			o.Status = "killed"
			continue
		}
		o.Status = "ok"
		if respawned[i] {
			o.Status = "respawned"
		}
		o.Completed = wr.Completed
		sent += wr.Sent
		completed += wr.Completed
		timeouts += wr.Timeouts
		res.SendErrors += wr.SendErrors
		mallocs += wr.Mallocs
		res.Retx += wr.Retx
		res.RingDrops += wr.RingDrops
		res.CPUSec += wr.CPUSec
		h.merge(wr.Hist)
		if e := time.Duration(wr.ElapsedSec * float64(time.Second)); e > res.Elapsed {
			res.Elapsed = e
		}
		got := sinkRes.PortCounts[strconv.Itoa(genBasePort+i-1)]
		if respawned[i] {
			if got < wr.Completed && gateErr == nil {
				gateErr = fmt.Errorf("respawned generator %d: sink received %d messages, it confirmed %d", i, got, wr.Completed)
			}
		} else if got != wr.Completed && gateErr == nil {
			gateErr = fmt.Errorf("generator %d: sink received %d messages, it confirmed %d", i, got, wr.Completed)
		}
	}
	res.Msgs = completed
	res.Lost = timeouts + (sent - completed)
	if !res.Degraded && len(opts.Chaos) == 0 {
		res.Outcomes = nil
	}
	if gateErr != nil {
		return res, gateErr
	}
	if !res.Degraded && sinkRes.Received != completed {
		return res, fmt.Errorf("sink received %d messages, generators confirmed %d", sinkRes.Received, completed)
	}
	if res.SendErrors > 0 {
		return res, fmt.Errorf("%d sends failed at the node API", res.SendErrors)
	}
	if res.Lost > 0 {
		return res, fmt.Errorf("%d messages lost (%d timeouts, %d unacknowledged)", res.Lost, timeouts, sent-completed)
	}
	if res.Elapsed > 0 {
		res.MsgsPerSec = float64(res.Msgs) / res.Elapsed.Seconds()
	}
	if res.CPUSec > 0 {
		res.MsgsPerSecCore = float64(res.Msgs) / res.CPUSec
	}
	if res.Msgs > 0 {
		res.AllocsPerMsg = float64(mallocs) / float64(res.Msgs)
	}
	res.P50 = h.percentile(0.50)
	res.P99 = h.percentile(0.99)
	return res, nil
}
