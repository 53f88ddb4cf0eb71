package platform

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mtp"
)

// workerTimeout bounds every control-channel wait inside a worker; a dead
// launcher must not leave orphan processes behind. Launcher-side death
// detection is much faster (heartbeats); this is only the worker's own
// backstop.
const workerTimeout = 5 * time.Minute

// hbInterval is how often a worker proves liveness on the control
// channel. It must be well under the launcher's HeartbeatTimeout.
const hbInterval = 500 * time.Millisecond

// genBasePort is the MTP source port of generator index 1; generator i
// binds genBasePort+i-1 so the sink's per-port receive counts identify
// each generator even across a respawn (a fresh process keeps the port).
const genBasePort = 100

// dialControlBudget bounds the total time a worker spends trying to
// reach the launcher. A var so tests can shrink it.
var dialControlBudget = 15 * time.Second

// dialControl connects to the launcher with capped exponential backoff:
// a respawned worker may race the launcher's accept loop, and a single
// long attempt used to turn that race into a lost worker.
func dialControl(addr string, index int) (net.Conn, error) {
	deadline := time.Now().Add(dialControlBudget)
	backoff := 100 * time.Millisecond
	for {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("worker %d: dial control %s: %w", index, addr, err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// RunWorker executes one node of an experiment point, driven entirely by
// the launcher over the control channel at controlAddr. Index 0 is the
// sink; every other index is a closed-loop generator. Commands embed this
// behind a hidden flag and re-exec themselves as workers.
func RunWorker(controlAddr string, index int) error {
	conn, err := dialControl(controlAddr, index)
	if err != nil {
		return err
	}
	cc := newCtrlConn(conn)
	defer cc.Close()
	if err := cc.send(ctrlMsg{Type: "hello", Index: index}); err != nil {
		return err
	}

	// Heartbeat until this worker exits; the launcher detects a crashed
	// or wedged worker by the silence, not by a five-minute timeout.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(hbInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if cc.send(ctrlMsg{Type: "hb", Index: index}) != nil {
					return
				}
			case <-hbStop:
				return
			}
		}
	}()

	setup, err := cc.expect("setup", workerTimeout)
	if err != nil || setup.Point == nil {
		return fmt.Errorf("worker %d: setup: %v", index, err)
	}
	if index == 0 {
		err = runSink(cc, *setup.Point)
	} else {
		err = runGenerator(cc, *setup.Point, index)
	}
	if err != nil {
		_ = cc.send(ctrlMsg{Type: "error", Index: index, Err: err.Error()})
	}
	return err
}

// nodeConfig maps a point's overrides onto the node config.
func nodeConfig(p Point, port uint16, onMsg func(mtp.Message)) mtp.Config {
	return mtp.Config{Port: port, MSS: p.MSS, CC: p.CC, RTO: p.rto(), OnMessage: onMsg}
}

// Sink is the receiving node of a load test and its running totals.
type Sink struct {
	Node *mtp.Node
	mu   sync.Mutex
	res  WorkerResult // Received, Bytes, PortCounts
}

// ListenSink opens a sink for p's workload on the UDP address addr.
func ListenSink(addr string, p Point) (*Sink, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	s := &Sink{res: WorkerResult{PortCounts: make(map[string]int)}}
	s.Node, err = mtp.NewNode(pc, nodeConfig(p, p.Port, func(m mtp.Message) {
		s.mu.Lock()
		s.res.Received++
		s.res.Bytes += uint64(len(m.Data))
		s.res.PortCounts[strconv.Itoa(int(m.SrcPort))]++
		s.mu.Unlock()
	}))
	return s, err
}

// Result reports what has arrived so far, with per-source-port counts so the
// launcher can audit survivors individually after a chaos kill. The engine
// delivers a message before the ACK that confirms it leaves, but the node
// writes a receive bracket's ACKs before it hands the bracket's messages to
// OnMessage; so Result first waits, a second at most, until OnMessage has
// counted every message the engine had delivered, and a message whose sender
// saw it confirmed is in the counts.
func (s *Sink) Result() WorkerResult {
	st := s.Node.Stats() // before mu: the node calls OnMessage, which takes it
	caughtUp := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(s.res.Received) >= st.MsgsDelivered
	}
	for deadline := time.Now().Add(time.Second); !caughtUp() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.res
	res.RingDrops = st.RingFullDrops
	res.PortCounts = make(map[string]int, len(s.res.PortCounts))
	for k, v := range s.res.PortCounts {
		res.PortCounts[k] = v
	}
	return res
}

// runSink receives until the launcher says every generator is done, then
// reports totals.
func runSink(cc *ctrlConn, p Point) error {
	sink, err := ListenSink("127.0.0.1:0", p)
	if err != nil {
		return err
	}
	defer sink.Node.Close()
	if err := cc.send(ctrlMsg{Type: "ready", Index: 0, Addr: sink.Node.Addr().String()}); err != nil {
		return err
	}
	if _, err := cc.expect("start", workerTimeout); err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	// The launcher sends stop only after every generator reported done,
	// and generators only finish once their messages are end-to-end
	// acknowledged — which MTP does strictly after delivery. So at stop
	// time the engine's delivery count is final, and Result waits for
	// OnMessage to catch up with it.
	if _, err := cc.expect("stop", workerTimeout); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	res := sink.Result()
	res.ElapsedSec = time.Since(t0).Seconds()
	res.CPUSec = cpuSeconds() - cpu0
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	return cc.send(ctrlMsg{Type: "done", Index: 0, Result: &res})
}

// runGenerator sends the point's workload at the sink the launcher names and
// reports the outcome.
func runGenerator(cc *ctrlConn, p Point, index int) error {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	node, err := mtp.NewNode(pc, nodeConfig(p, uint16(genBasePort+index-1), nil))
	if err != nil {
		return err
	}
	defer node.Close()
	if err := cc.send(ctrlMsg{Type: "ready", Index: index}); err != nil {
		return err
	}
	start, err := cc.expect("start", workerTimeout)
	if err != nil {
		return err
	}
	res := Generate(node, start.Addr, p)
	if err := cc.send(ctrlMsg{Type: "done", Index: index, Result: &res}); err != nil {
		return err
	}
	// Stay alive (still ACK-reachable) until the sink has been drained.
	_, err = cc.expect("stop", workerTimeout)
	return err
}

// Generate is the one closed-loop driver: it sends p.Messages messages of
// p.Size bytes from node to target's port p.Port, p.Concurrency outstanding,
// each waiting up to 30 s for its end-to-end acknowledgement, and reports
// per-message RTTs plus resource use. p must have passed Point.Checked.
func Generate(node *mtp.Node, target string, p Point) WorkerResult {
	payload := make([]byte, p.Size)
	for i := range payload {
		payload[i] = byte(i)
	}
	var mu sync.Mutex
	var h hist
	var res WorkerResult
	sem := make(chan struct{}, p.Concurrency)
	var wg sync.WaitGroup

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	for i := 0; i < p.Messages; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			s0 := time.Now()
			out, err := node.Send(target, p.Port, payload)
			mu.Lock()
			if err != nil {
				res.SendErrors++
			} else {
				res.Sent++
			}
			mu.Unlock()
			if err != nil {
				return
			}
			select {
			case <-out.Done():
				mu.Lock()
				res.Completed++
				h.add(time.Since(s0))
				mu.Unlock()
			case <-time.After(30 * time.Second):
				mu.Lock()
				res.Timeouts++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.ElapsedSec = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	res.Hist = h.slice()
	res.CPUSec = cpuSeconds() - cpu0
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.Retx = node.Stats().PktsRetx
	res.RingDrops = node.Stats().RingFullDrops
	return res
}

// Latency returns the message RTT at quantile q in [0,1] of a generator's
// result (bucket midpoints: ~4% resolution, see hist.go).
func (r WorkerResult) Latency(q float64) time.Duration {
	var h hist
	h.merge(r.Hist)
	return h.percentile(q)
}
