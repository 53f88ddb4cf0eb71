package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mtp"
	"mtp/internal/udpnet"
	"mtp/internal/wire"
)

// netSpec is one closed-loop load shape over a pair of mtp.Nodes in this
// process: W generator goroutines each send, wait for completion, and send
// again. MTP callers are RPC-shaped and wait for a reply, so a closed loop is
// the honest model; a slow system receives less load.
type netSpec struct {
	Name string
	ID   uint8 // workload id stamped into every payload
	Size ByteCount
	W    int
	RPC  bool // Node.Call against a ServeRPC echo, instead of one-way Send
	Mem  bool // mtp.NewMemNetwork instead of UDP loopback
	// Lossy wraps both sockets in udpnet.NewLossy (drop 2%, dup 1%,
	// reorder 2%).
	Lossy bool
	// Warmup is how many messages one set-up sends before timing starts. It
	// is a count, not a duration, so set-up time measures work.
	Warmup int
	// TraceEvents is mtp.Config.TraceEvents for both nodes.
	TraceEvents int
}

const (
	sinkPort   = 7
	sourcePort = 9
	// stuckAfter bounds how long a generator waits for one completion
	// before the message counts as failed.
	stuckAfter = 30 * time.Second
)

// shimConn is the counting/timing wrapper the traced rungs put around a
// Node's PacketConn. Because it is not a *net.UDPConn, a Node on UDP falls
// back from recvmmsg/sendmmsg batches to udpnet's one-datagram connIO path
// when shimmed; traced UDP numbers carry that cost.
type shimConn struct {
	net.PacketConn
	rec *recorder

	wmu  sync.Mutex
	whdr wire.Header // guarded by wmu: WriteTo may be called concurrently
	rhdr wire.Header // ReadFrom has a single caller
}

// msgOf returns the wire MsgID of a data packet, 0 for ACKs and non-MTP
// datagrams.
func msgOf(h *wire.Header, p []byte) uint64 {
	if _, err := wire.DecodeInto(h, p); err != nil || h.Type != wire.TypeData {
		return 0
	}
	return h.MsgID
}

func (s *shimConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	s.wmu.Lock()
	msg := msgOf(&s.whdr, p)
	s.wmu.Unlock()
	i := s.rec.begin(spanPCWrite, -1, msg)
	n, err := s.PacketConn.WriteTo(p, addr)
	s.rec.end(i)
	return n, err
}

// ReadFrom's span runs from the call to its return, so it includes the wait
// for a datagram to arrive.
func (s *shimConn) ReadFrom(p []byte) (int, net.Addr, error) {
	i := s.rec.begin(spanPCRead, -1, 0)
	n, addr, err := s.PacketConn.ReadFrom(p)
	if err == nil {
		s.rec.setMsg(i, msgOf(&s.rhdr, p[:n]))
	}
	s.rec.end(i)
	return n, addr, err
}

// generator is one closed-loop sender.
type generator struct {
	buf     []byte
	bodyCRC uint32
	seq     uint64
	lat     []float64 // completion latencies of the current phase, ns

	// root and done carry span indexes between the generator and the sink
	// goroutine for the one message this generator has in flight.
	root, done atomic.Int32
}

// pair is two Nodes in this process, the ledger of what the sink received,
// and the generators that drive them.
type pair struct {
	spec netSpec
	a, b *mtp.Node
	dst  string
	led  *ledger
	gens []*generator
	rec  *recorder

	completed atomic.Int64 // messages (or calls) a generator saw complete
	sendErrs  atomic.Int64
	stuck     atomic.Int64
	badReply  atomic.Int64
}

// listen opens one endpoint of the pair's network.
func (spec netSpec) listen(mem *mtp.MemNetwork, name string, seed int64, rec *recorder) (net.PacketConn, error) {
	var pc net.PacketConn
	var err error
	if spec.Mem {
		pc, err = mem.Listen(name)
	} else {
		pc, err = net.ListenPacket("udp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, err
	}
	if spec.Lossy {
		l := udpnet.NewLossy(pc, seed)
		l.Drop, l.Dup, l.Reorder = 0.02, 0.01, 0.02
		pc = l
	}
	if rec != nil {
		pc = &shimConn{PacketConn: pc, rec: rec}
	}
	return pc, nil
}

// newPair builds the two nodes. rec, when non-nil, shims both PacketConns
// and records spans around every message.
func newPair(spec netSpec, seed int64, rec *recorder) (*pair, error) {
	p := &pair{spec: spec, rec: rec, led: newLedger(spec.ID, int(spec.Size), spec.W)}
	// The generators exist before the nodes do: the sink reads them from the
	// nodes' goroutines.
	for g := 0; g < spec.W; g++ {
		buf, crc := newBody(int(spec.Size), spec.ID, uint8(g), seed)
		gen := &generator{buf: buf, bodyCRC: crc}
		gen.root.Store(-1)
		gen.done.Store(-1)
		p.gens = append(p.gens, gen)
	}
	var mem *mtp.MemNetwork
	if spec.Mem {
		mem = mtp.NewMemNetwork(seed)
	}
	cb, err := spec.listen(mem, "sink", seed+1, rec)
	if err != nil {
		return nil, err
	}
	cfgB := mtp.Config{Port: sinkPort, TraceEvents: spec.TraceEvents}
	if !spec.RPC {
		cfgB.OnMessage = p.sink
	}
	if p.b, err = mtp.NewNode(cb, cfgB); err != nil {
		cb.Close() // a Node owns its conn only once it exists
		return nil, err
	}
	if spec.RPC {
		if err := p.b.ServeRPC(sinkPort, p.echo); err != nil {
			p.close()
			return nil, err
		}
	}
	ca, err := spec.listen(mem, "source", seed, rec)
	if err != nil {
		p.close()
		return nil, err
	}
	if p.a, err = mtp.NewNode(ca, mtp.Config{Port: sourcePort, TraceEvents: spec.TraceEvents}); err != nil {
		ca.Close()
		p.close()
		return nil, err
	}
	p.dst = p.b.Addr().String()
	return p, nil
}

// close shuts both nodes down. A sender may see a message acknowledged
// before the receiving Node has called OnMessage for it (the ACK leaves under
// the Node's lock, the callback runs after), so close first gives the sink a
// moment to catch up with the generators; failures() is only meaningful after
// close.
func (p *pair) close() {
	for wait := time.Now().Add(2 * time.Second); p.led.delivered.Load() < p.completed.Load() && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	if p.a != nil {
		p.a.Close()
	}
	if p.b != nil {
		p.b.Close()
	}
}

// sink is node b's OnMessage for one-way workloads.
func (p *pair) sink(m mtp.Message) {
	gen, _, ok := p.led.deliver(m.Data)
	if !ok || p.rec == nil {
		return
	}
	g := p.gens[gen]
	p.rec.end(g.root.Load())
	g.done.Store(p.rec.begin(spanDeliverToDone, -1, m.ID))
}

// echo is node b's RPC handler: verify the request, return it unchanged.
func (p *pair) echo(_ string, req []byte) ([]byte, error) {
	gen, seq, ok := p.led.deliver(req)
	if !ok {
		return nil, fmt.Errorf("bench: bad request stamp")
	}
	if p.rec != nil {
		// Nothing to time inside an echo; the span marks where the request
		// leg ends and the response leg starts.
		h := p.rec.begin(spanRPCHandler, p.gens[gen].root.Load(), rpcMsgKey(gen, seq))
		p.rec.end(h)
	}
	return req, nil
}

func rpcMsgKey(gen uint8, seq uint64) uint64 { return uint64(gen)<<48 | seq }

// one sends a single message (or makes a single call) and waits for it.
func (p *pair) one(ctx context.Context, gi int) {
	g := p.gens[gi]
	g.seq++
	stamp(g.buf, g.bodyCRC, g.seq)
	if p.spec.RPC {
		root := p.rec.begin(spanRPCCall, -1, rpcMsgKey(uint8(gi), g.seq))
		g.root.Store(root)
		resp, err := p.a.Call(ctx, p.dst, sinkPort, g.buf)
		p.rec.end(root)
		switch {
		case ctx.Err() != nil:
			p.stuck.Add(1)
		case err != nil:
			p.sendErrs.Add(1)
		case !bytes.Equal(resp, g.buf):
			p.badReply.Add(1)
		default:
			p.completed.Add(1)
		}
		return
	}
	root := p.rec.begin(spanSendToDeliver, -1, 0)
	g.root.Store(root)
	call := p.rec.begin(spanSendCall, -1, 0)
	out, err := p.a.Send(p.dst, sinkPort, g.buf)
	p.rec.end(call)
	if err != nil {
		p.sendErrs.Add(1)
		return
	}
	p.rec.setMsg(root, out.ID)
	p.rec.setMsg(call, out.ID)
	select {
	case <-out.Done():
		p.rec.end(g.done.Swap(-1))
		p.completed.Add(1)
	case <-ctx.Done():
		p.stuck.Add(1)
	}
}

// drive runs every generator until the deadline passes (timed phases) or
// until each has sent its share of quota messages (warm-up), and returns the
// number of messages attempted. Generators finish the message they have in
// flight, so completions and deliveries reconcile exactly afterwards.
func (p *pair) drive(deadline time.Time, quota int) int64 {
	limit := deadline
	if limit.IsZero() {
		limit = time.Now()
	}
	ctx, cancel := context.WithDeadline(context.Background(), limit.Add(stuckAfter))
	defer cancel()
	var attempted atomic.Int64
	var wg sync.WaitGroup
	for gi := range p.gens {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			g := p.gens[gi]
			g.lat = g.lat[:0]
			share := quota / len(p.gens)
			for n := 0; quota == 0 || n < share; n++ {
				t0 := time.Now()
				if quota == 0 && !t0.Before(deadline) {
					break
				}
				p.one(ctx, gi)
				g.lat = append(g.lat, float64(time.Since(t0)))
				attempted.Add(1)
				if ctx.Err() != nil {
					break
				}
			}
		}(gi)
	}
	wg.Wait()
	return attempted.Load()
}

// failures is every way a message can fail to be delivered once, intact, and
// acknowledged: send errors, stuck messages, wrong replies, the sink's own
// faults, and any difference between completions and deliveries.
func (p *pair) failures() int64 {
	d := p.completed.Load() - p.led.delivered.Load()
	return p.sendErrs.Load() + p.stuck.Load() + p.badReply.Load() + p.led.faults() + max(d, -d)
}

// latencies merges and sorts the generators' samples from the last phase.
func (p *pair) latencies() []float64 {
	var all []float64
	for _, g := range p.gens {
		all = append(all, g.lat...)
	}
	sort.Float64s(all)
	return all
}

// liveHeap is what the pair keeps alive between repetitions: nodes, ledger and
// payload buffers. The generators' latency samples are the benchmark's, not
// the system's, and are taken out.
func (p *pair) liveHeap() ByteCount {
	h := liveHeap()
	for _, g := range p.gens {
		h -= ByteCount(8 * cap(g.lat))
	}
	return h
}

// nodeCounters sums both nodes' protocol counters.
func (p *pair) nodeCounters() mtp.Stats {
	a, b := p.a.Stats(), p.b.Stats()
	a.PktsSent += b.PktsSent
	a.AcksSent += b.AcksSent
	a.PktsRetx += b.PktsRetx
	a.PktsDuplicate += b.PktsDuplicate
	a.NacksSent += b.NacksSent
	a.Timeouts += b.Timeouts
	a.RingFullDrops += b.RingFullDrops
	return a
}

// timedRep runs the generators for d and returns the repetition's metrics
// under both end-to-end and per-layer names, plus messages attempted.
func (p *pair) timedRep(d time.Duration) (map[string]float64, int64) {
	before, c0 := readUsage(), p.nodeCounters()
	done0 := p.completed.Load()
	attempted := p.drive(time.Now().Add(d), 0)
	use := readUsage().since(before)
	c1 := p.nodeCounters()
	msgs := p.completed.Load() - done0
	lat := p.latencies()

	m := map[string]float64{
		"msgs_per_s":     float64(RateFromDelta(msgs, use.wall)),
		"goodput_MBps":   BandwidthFromDelta(ByteCount(msgs)*p.spec.Size, use.wall).MBps(),
		"lat_p95_us":     Nanos(percentile(lat, 0.95)).Micros(),
		"mtp.lat_p50_us": Nanos(percentile(lat, 0.50)).Micros(),
		"mtp.lat_p99_us": Nanos(percentile(lat, 0.99)).Micros(),
	}
	perMsg := func(n float64) float64 {
		if msgs == 0 {
			return 0
		}
		return n / float64(msgs)
	}
	m["mtp.pkts_sent_per_msg"] = perMsg(float64(c1.PktsSent - c0.PktsSent))
	m["mtp.acks_per_msg"] = perMsg(float64(c1.AcksSent - c0.AcksSent))
	m["mtp.retx_per_kmsg"] = 1e3 * perMsg(float64(c1.PktsRetx-c0.PktsRetx))
	m["mtp.dup_rx_per_kmsg"] = 1e3 * perMsg(float64(c1.PktsDuplicate-c0.PktsDuplicate))
	m["mtp.nacks_per_kmsg"] = 1e3 * perMsg(float64(c1.NacksSent-c0.NacksSent))
	m["mtp.timeouts_per_kmsg"] = 1e3 * perMsg(float64(c1.Timeouts-c0.Timeouts))
	m["mtp.ring_full_drops"] = float64(c1.RingFullDrops - c0.RingFullDrops)
	use.perMessage(m, msgs)
	return m, attempted
}

// perMessage adds the process-wide costs of a repetition, divided over the
// msgs it completed, to m.
func (u usageDelta) perMessage(m map[string]float64, msgs int64) {
	if msgs <= 0 {
		msgs = 1
	}
	m["os.cpu_us_per_msg"] = NanosPer(u.cpu, msgs).Micros()
	m["allocs_per_msg"] = float64(u.mallocs) / float64(msgs)
	m["mtp.mutex_wait_us_per_msg"] = NanosPer(u.mutexWait, msgs).Micros()
	if u.cpu > 0 {
		m["os.sys_cpu_frac"] = float64(u.sys) / float64(u.cpu)
	}
	m["os.ctxsw_per_msg"] = float64(u.ctxsw) / float64(msgs)
	m["go.gc_cpu_frac"] = u.gcCPUFrac
	m["go.alloc_B_per_msg"] = float64(u.allocBytes) / float64(msgs)
	m["go.sched_lat_us_p99"] = u.schedP99.Micros()
}
