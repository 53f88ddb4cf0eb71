package main

import (
	"fmt"
	"runtime"
	"time"

	"mtp/internal/core"
	"mtp/internal/wire"
)

// nullWorld joins two core.Endpoints with no network and no real clock: a
// FIFO of encoded datagrams and a virtual clock that advances one microsecond
// per delivery. Every header is encoded and decoded exactly as a socket
// binding would, so the rung above it (mtp.Node on memnet) differs only by
// what the Node adds. Timers fire only when the FIFO is empty, i.e. the
// "network" is infinitely fast relative to the RTO and no timeout is ever
// spurious. Single goroutine; nothing here is safe for concurrent use.
type nullWorld struct {
	now   time.Duration
	queue []nullDgram
	head  int
	free  [][]byte
	envs  [2]*nullEnv

	// dropEvery > 0 discards every dropEvery-th datagram, data and ACKs
	// alike, deterministically.
	dropEvery int
	outputs   int

	hdr wire.Header // decode scratch
	in  core.Inbound

	rec  *recorder
	open []int32 // stack of open spans; Output nests under whatever called it
}

type nullDgram struct {
	to  *nullEnv
	buf []byte
}

// nullEnv is one endpoint's core.Env.
type nullEnv struct {
	w       *nullWorld
	addr    core.Addr // pre-boxed: converting per packet would allocate
	peer    *nullEnv
	ep      *core.Endpoint
	timerAt time.Duration
}

const nullHopDelay = time.Microsecond

func (e *nullEnv) Now() time.Duration { return e.w.now }

// OutputNonRetaining implements core.OutputNonRetainer: Output encodes the
// header before returning, as mtp.Node does.
func (e *nullEnv) OutputNonRetaining() bool { return true }

func (e *nullEnv) SetTimer(t time.Duration) { e.timerAt = t }

func (e *nullEnv) Output(pkt *core.Outbound) {
	w := e.w
	out := w.begin(spanEnvOutput, pkt.Hdr.MsgID)
	var buf []byte
	if n := len(w.free); n > 0 {
		buf, w.free = w.free[n-1], w.free[:n-1]
	}
	enc := w.begin(spanWireEncode, pkt.Hdr.MsgID)
	buf, err := pkt.Hdr.Encode(buf[:0])
	w.end(enc)
	if err != nil {
		panic(fmt.Sprintf("bench: endpoint emitted an unencodable header: %v", err))
	}
	buf = append(buf, pkt.Data...)
	w.outputs++
	if w.dropEvery > 0 && w.outputs%w.dropEvery == 0 {
		w.free = append(w.free, buf)
	} else {
		w.queue = append(w.queue, nullDgram{to: e.peer, buf: buf})
	}
	w.end(out)
}

func (w *nullWorld) begin(name spanName, msg uint64) int32 {
	if w.rec == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(w.open); n > 0 {
		parent = w.open[n-1]
	}
	i := w.rec.begin(name, parent, msg)
	w.open = append(w.open, i)
	return i
}

func (w *nullWorld) end(i int32) {
	if w.rec == nil {
		return
	}
	w.rec.end(i)
	w.open = w.open[:len(w.open)-1]
}

// step delivers the next queued datagram, or with an empty queue fires the
// earliest armed timer. It reports false when there is nothing left to do.
func (w *nullWorld) step() bool {
	if w.head < len(w.queue) {
		d := w.queue[w.head]
		w.queue[w.head] = nullDgram{}
		w.head++
		if w.head == len(w.queue) {
			w.queue, w.head = w.queue[:0], 0
		}
		w.now += nullHopDelay
		dec := w.begin(spanWireDecode, 0)
		n, err := wire.DecodeInto(&w.hdr, d.buf)
		w.end(dec)
		if err != nil {
			panic(fmt.Sprintf("bench: own datagram failed to decode: %v", err))
		}
		w.rec.setMsg(dec, w.hdr.MsgID)
		name := spanCoreOnAck
		if w.hdr.Type == wire.TypeData {
			name = spanCoreOnData
		}
		w.in = core.Inbound{From: d.to.peer.addr, Hdr: &w.hdr}
		if n < len(d.buf) {
			w.in.Data = d.buf[n:]
		}
		s := w.begin(name, w.hdr.MsgID)
		d.to.ep.OnPacket(&w.in)
		w.end(s)
		w.free = append(w.free, d.buf)
		return true
	}
	var next *nullEnv
	for _, e := range w.envs {
		if e.timerAt > 0 && (next == nil || e.timerAt < next.timerAt) {
			next = e
		}
	}
	if next == nil {
		return false
	}
	if next.timerAt > w.now {
		w.now = next.timerAt
	}
	next.timerAt = 0
	s := w.begin(spanCoreOnTimer, 0)
	next.ep.OnTimer(w.now)
	w.end(s)
	return true
}

// coreCell is the result of pushing n messages of one shape through the pair.
type coreCell struct {
	Size ByteCount
	W    int
	Msgs int64

	PerMsg       Nanos
	PerPkt       Nanos
	AllocsPerMsg float64
	PktsPerMsg   float64
	AcksPerPkt   float64

	src, dst core.EndpointStats
	faults   int64 // corrupt, duplicated or skipped deliveries, and stalls
}

// runCore sends n messages of the given size from endpoint a to endpoint b,
// keeping w in flight, and verifies exactly-once delivery of every payload.
func runCore(size ByteCount, w, n int, dropEvery int, seed int64, rec *recorder) coreCell {
	world := &nullWorld{dropEvery: dropEvery, rec: rec}
	led := newLedger(0, int(size), w)
	ea := &nullEnv{w: world, addr: "a"}
	eb := &nullEnv{w: world, addr: "b"}
	ea.peer, eb.peer = eb, ea
	world.envs = [2]*nullEnv{ea, eb}

	// The configuration mtp.NewNode gives its endpoint.
	base := core.Config{MSS: 1200, RTO: 20 * time.Millisecond}
	var idle [][]byte // message buffers not in flight
	done := 0
	cfgA, cfgB := base, base
	cfgA.LocalPort, cfgA.Epoch = sourcePort, 1
	cfgA.OnMessageSent = func(m *core.OutMessage) {
		done++
		idle = append(idle, m.Data())
	}
	cfgB.LocalPort, cfgB.Epoch = sinkPort, 2
	cfgB.OnMessage = func(m *core.InMessage) { led.deliver(m.Data) }
	ea.ep = core.NewEndpoint(ea, cfgA)
	eb.ep = core.NewEndpoint(eb, cfgB)

	crcs := make([]uint32, w)
	seqs := make([]uint64, w)
	for g := 0; g < w; g++ {
		buf, crc := newBody(int(size), 0, uint8(g), seed)
		crcs[g] = crc
		idle = append(idle, buf)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	sent, stalled := 0, false
	for done < n && !stalled {
		for len(idle) > 0 && sent < n {
			buf := idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			g := buf[1]
			seqs[g]++
			stamp(buf, crcs[g], seqs[g])
			s := world.begin(spanCoreSend, 0)
			m := ea.ep.Send(eb.addr, sinkPort, buf, core.SendOptions{})
			world.end(s)
			rec.setMsg(s, m.ID)
			sent++
		}
		stalled = !world.step()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	c := coreCell{Size: size, W: w, Msgs: int64(done), src: ea.ep.Stats, dst: eb.ep.Stats}
	c.PerMsg = NanosPer(elapsed, c.Msgs)
	c.PerPkt = NanosPer(elapsed, int64(c.src.PktsSent))
	if done > 0 {
		c.AllocsPerMsg = float64(ms1.Mallocs-ms0.Mallocs) / float64(done)
		c.PktsPerMsg = float64(c.src.PktsSent) / float64(done)
	}
	if c.src.PktsSent > 0 {
		c.AcksPerPkt = float64(c.dst.AcksSent) / float64(c.src.PktsSent)
	}
	d := int64(done) - led.delivered.Load()
	c.faults = led.faults() + int64(n-done) + max(d, -d)
	return c
}
