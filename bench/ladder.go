package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"mtp"
	"mtp/internal/cc"
	"mtp/internal/pathlet"
	"mtp/internal/wire"
)

// The ladder runs each layer alone and then stacked, rung by rung:
//
//	wire -> cc/pathlet -> core on the null Env -> mtp on memnet ->
//	bare udpnet -> mtp on UDP -> sim engine -> simnet -> exp.RunScale
//
// with the same four message shapes at W=1 and W=16 wherever a rung moves
// messages. The difference between two adjacent rungs is what the upper one
// adds; no rung claims anything on its own.

var ladderShapes = []ByteCount{64 * Byte, 512 * Byte, 4 * KiB, 64 * KiB}
var ladderWindows = []int{1, 16}

// ladder accumulates per-layer cells and the faults any rung's own
// correctness check found.
type ladder struct {
	out    io.Writer
	seed   int64
	b      budget
	rec    *recorder
	cells  map[string]value
	faults int64
	// closure is the worst self-time bookkeeping gap seen in any rung.
	closure float64
}

func (l *ladder) set(name string, v float64) { l.cells[name] = exact(v) }

// n scales an iteration count down for the quick (unit-test) mode.
func (l *ladder) n(full int) int {
	if l.b.Quick {
		return max(full/25, 8)
	}
	return full
}

// cellTime is how long one mtp-rung cell is driven.
func (l *ladder) cellTime() time.Duration {
	if l.b.Quick {
		return 10 * time.Millisecond
	}
	return 80 * time.Millisecond
}

// perOp runs fn n times in each of 5 batches and returns the median batch's
// nanoseconds per call and the allocations per call over all batches.
func perOp(n int, fn func()) (Nanos, float64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var batches []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches = append(batches, float64(NanosPer(time.Since(t0), int64(n))))
	}
	runtime.ReadMemStats(&ms1)
	sort.Float64s(batches)
	return Nanos(batches[2]), float64(ms1.Mallocs-ms0.Mallocs) / float64(5*n)
}

func runLadder(out io.Writer, seed int64, b budget, rec *recorder) *ladder {
	l := &ladder{out: out, seed: seed, b: b, rec: rec, cells: map[string]value{}}
	fmt.Fprintf(out, "\nladder (one rung at a time; every number is this rung alone)\n")
	l.wireRung()
	l.ccRung()
	l.coreRung()
	l.mtpRung(true)
	l.udpnetRung()
	l.mtpRung(false)
	l.osRung()
	l.simRungs()
	l.set("bench.span_closure_err", l.closure)
	return l
}

func (l *ladder) wireRung() {
	p1, p2 := wire.PathTC{PathID: 1}, wire.PathTC{PathID: 2}
	data := wire.Header{
		Type: wire.TypeData, SrcPort: sourcePort, DstPort: sinkPort, Epoch: 1, MsgFloor: 41,
		MsgID: 42, MsgBytes: 64 << 10, MsgPkts: 55, PktNum: 3, PktOffset: 3600, PktLen: 1200,
		PathFeedback: []wire.Feedback{wire.ECNFeedback(p1, false), wire.ECNFeedback(p2, true)},
	}
	ack := wire.Header{
		Type: wire.TypeAck, SrcPort: sinkPort, DstPort: sourcePort, Epoch: 2,
		AckPathFeedback: data.PathFeedback,
	}
	for i := 0; i < 16; i++ {
		ack.SACK = append(ack.SACK, wire.PacketRef{MsgID: 42, PktNum: uint32(i)})
	}
	buf := make([]byte, 0, 512)
	var got wire.Header
	n := l.n(200000)
	enc, encAllocs := perOp(n, func() { buf, _ = data.Encode(buf[:0]) })
	hdrLen := len(buf)
	dec, decAllocs := perOp(n, func() {
		if _, err := wire.DecodeInto(&got, buf); err != nil {
			l.faults++
		}
	})
	if got.MsgID != data.MsgID || len(got.PathFeedback) != 2 {
		l.faults++
	}
	codec, _ := perOp(n, func() {
		buf, _ = ack.Encode(buf[:0])
		if _, err := wire.DecodeInto(&got, buf); err != nil {
			l.faults++
		}
	})
	if len(got.SACK) != 16 {
		l.faults++
	}
	l.set("wire.encode_ns", float64(enc))
	l.set("wire.decode_ns", float64(dec))
	l.set("wire.ack_codec_ns", float64(codec))
	l.set("wire.data_hdr_B", float64(hdrLen))
	l.set("wire.allocs_per_pkt", encAllocs+decAllocs)
	fmt.Fprintf(l.out, "  wire     data header %dB with 2 feedback TLVs: encode %v decode %v; ACK with 16 SACKs encode+decode %v; %.2f allocs/pkt\n",
		hdrLen, enc, dec, codec, encAllocs+decAllocs)
}

func (l *ladder) ccRung() {
	algo, err := cc.New(cc.KindDCTCP, cc.Config{MSS: 1200})
	if err != nil {
		l.faults++
		return
	}
	var now time.Duration
	i := 0
	n := l.n(200000)
	onAck, _ := perOp(n, func() {
		now += time.Microsecond
		i++
		algo.OnAck(now, cc.Signal{AckedBytes: 1200, ECN: i%16 == 0, RTT: 50 * time.Microsecond})
	})
	tbl := pathlet.NewTable(func(wire.PathTC) cc.Algorithm {
		a, _ := cc.New(cc.KindDCTCP, cc.Config{MSS: 1200})
		return a
	})
	entries := []wire.Feedback{
		wire.ECNFeedback(wire.PathTC{PathID: 1}, false),
		wire.ECNFeedback(wire.PathTC{PathID: 2}, false),
	}
	tblAck, tblAllocs := perOp(n, func() {
		now += time.Microsecond
		tbl.OnAck(now, entries, 1200, 50*time.Microsecond)
	})
	l.set("cc.dctcp_onack_ns", float64(onAck))
	l.set("pathlet.onack_ns", float64(tblAck))
	l.set("pathlet.allocs_per_ack", tblAllocs)
	fmt.Fprintf(l.out, "  cc       dctcp OnAck %v; pathlet.Table.OnAck (2 pathlets) %v, %.2f allocs/ack\n", onAck, tblAck, tblAllocs)
}

func (l *ladder) coreRung() {
	msgs := map[ByteCount]int{64 * Byte: 10000, 512 * Byte: 10000, 4 * KiB: 5000, 64 * KiB: 800}
	fmt.Fprintf(l.out, "  core     two Endpoints on the null Env (FIFO, virtual clock, real header encode+decode)\n")
	for _, size := range ladderShapes {
		for _, w := range ladderWindows {
			c := runCore(size, w, l.n(msgs[size]), 0, l.seed, nil)
			l.faults += c.faults
			fmt.Fprintf(l.out, "             %5v W=%-2d %10v/msg %9v/pkt %6.1f allocs/msg %5.1f pkts/msg %.2f acks/pkt\n",
				size, w, c.PerMsg, c.PerPkt, c.AllocsPerMsg, c.PktsPerMsg, c.AcksPerPkt)
			if w != 16 {
				continue
			}
			l.set("core.ns_per_msg_"+size.String(), float64(c.PerMsg))
			switch size {
			case 512 * Byte:
				l.set("core.allocs_per_msg_512B", c.AllocsPerMsg)
				l.set("core.pkts_per_msg_512B", c.PktsPerMsg)
			case 64 * KiB:
				l.set("core.ns_per_pkt_64KB", float64(c.PerPkt))
				l.set("core.allocs_per_msg_64KB", c.AllocsPerMsg)
				l.set("core.acks_per_data_pkt_64KB", c.AcksPerPkt)
			}
		}
	}

	// Recovery, with every 50th datagram (data or ACK) dropped. The clock is
	// virtual and the drop pattern fixed, so these are exact counts.
	loss := runCore(4*KiB, 16, l.n(5000), 50, l.seed, nil)
	l.faults += loss.faults
	perK := func(n uint64, per uint64) float64 {
		if per == 0 {
			return 0
		}
		return 1e3 * float64(n) / float64(per)
	}
	l.set("core.retx_per_kpkt_loss2", perK(loss.src.PktsRetx, loss.src.PktsSent))
	spurious := 0.0
	if loss.src.PktsRetx > 0 {
		spurious = float64(loss.dst.PktsDuplicate) / float64(loss.src.PktsRetx)
	}
	l.set("core.spurious_retx_frac_loss2", spurious)
	l.set("core.nacks_per_kmsg_loss2", perK(loss.dst.NacksSent, uint64(loss.Msgs)))
	l.set("core.timeouts_per_kmsg_loss2", perK(loss.src.Timeouts, uint64(loss.Msgs)))
	fmt.Fprintf(l.out, "             4KB W=16 dropping every 50th datagram: %v/msg, %d retx of %d pkts, %d dup rx, %d nacks, %d timeouts, %d faults\n",
		loss.PerMsg, loss.src.PktsRetx, loss.src.PktsSent, loss.dst.PktsDuplicate, loss.dst.NacksSent, loss.src.Timeouts, loss.faults)

	// Span self-times: a traced pass over the small shape, and a traced lossy
	// pass, which is the only place timers fire.
	lo := l.rec.grant(30000)
	l.faults += runCore(512*Byte, 16, l.n(3000), 0, l.seed, l.rec).faults
	l.faults += runCore(4*KiB, 16, l.n(1000), 50, l.seed, l.rec).faults
	spans := l.rec.recorded(lo)
	self := selfTimes(spans, lo)
	l.noteClosure(spans, lo)
	for _, s := range []struct {
		metric string
		name   spanName
	}{
		{"core.send_self_ns", spanCoreSend},
		{"core.on_data_self_ns", spanCoreOnData},
		{"core.on_ack_self_ns", spanCoreOnAck},
		{"core.on_timer_self_ns", spanCoreOnTimer},
	} {
		q, n := spanQuantile(spans, self, s.name, 0.5)
		l.set(s.metric, float64(q))
		fmt.Fprintf(l.out, "             %-22s p50 %v over %d spans\n", s.metric, q, n)
	}
}

func (l *ladder) noteClosure(spans []span, base int) {
	if e := closureError(spans, base); e > l.closure {
		l.closure = e
	}
}

// nodeCell is one mtp-rung cell: a traced pair driven for a fixed time.
type nodeCell struct {
	rate  PerSecond
	spans []span
	base  int
}

func (l *ladder) nodeCell(spec netSpec, rec *recorder, quota int) nodeCell {
	rec.grant(0) // warm-up is not recorded
	p, err := newPair(spec, l.seed, rec)
	if err != nil {
		fmt.Fprintf(l.out, "             %v: %v\n", spec.Size, err)
		l.faults++
		return nodeCell{}
	}
	p.drive(time.Time{}, l.n(400))
	base := rec.grant(quota)
	done0, t0 := p.completed.Load(), time.Now()
	p.drive(t0.Add(l.cellTime()), 0)
	rate := RateFromDelta(p.completed.Load()-done0, time.Since(t0))
	// Closing waits for the nodes' goroutines, after which no span is open.
	p.close()
	l.faults += p.failures()
	return nodeCell{rate: rate, spans: rec.recorded(base), base: base}
}

// mtpRung drives mtp.Node pairs over memnet or UDP loopback, shimmed and
// traced, in every shape and window.
func (l *ladder) mtpRung(mem bool) {
	name, note := "mtp/udp ", "two Nodes on UDP loopback; the shim forces udpnet's one-datagram connIO path"
	if mem {
		name, note = "mtp/mem ", "two Nodes on mtp.NewMemNetwork (legacy readLoop + time.AfterFunc path)"
	}
	fmt.Fprintf(l.out, "  %s %s, shimmed and traced\n", name, note)
	for _, size := range ladderShapes {
		for _, w := range ladderWindows {
			c := l.nodeCell(netSpec{ID: 9, Size: size, W: w, Mem: mem}, l.rec, 1500)
			l.noteClosure(c.spans, c.base)
			call, _ := spanQuantile(c.spans, nil, spanSendCall, 0.5)
			deliver, _ := spanQuantile(c.spans, nil, spanSendToDeliver, 0.5)
			ack, n := spanQuantile(c.spans, nil, spanDeliverToDone, 0.5)
			fmt.Fprintf(l.out, "             %5v W=%-2d %10v %10v/msg  send_call %v, send->deliver %v, deliver->done %v (p50 of %d)\n",
				size, w, c.rate, c.rate.Interval(), call, deliver, ack, n)
			if mem && size == 512*Byte && w == 1 {
				l.set("mtp.send_call_ns_p50", float64(call))
				l.set("mtp.deliver_us_p50", deliver.Micros())
				l.set("mtp.ack_return_us_p50", ack.Micros())
			}
		}
	}
	if !mem {
		return
	}

	// RPC legs, unloaded: where a call's time goes on either side of the
	// handler.
	c := l.nodeCell(netSpec{ID: 9, Size: 64 * Byte, W: 1, Mem: true, RPC: true}, l.rec, 4000)
	var req, resp []float64
	for _, h := range c.spans {
		if h.Name != spanRPCHandler || h.Parent < int32(c.base) {
			continue
		}
		call := c.spans[int(h.Parent)-c.base]
		if call.End == 0 {
			continue
		}
		req = append(req, float64(h.Start-call.Start))
		resp = append(resp, float64(call.End-h.End))
	}
	sort.Float64s(req)
	sort.Float64s(resp)
	l.set("rpc.request_leg_us_p50", Nanos(percentile(req, 0.5)).Micros())
	l.set("rpc.response_leg_us_p50", Nanos(percentile(resp, 0.5)).Micros())
	fmt.Fprintf(l.out, "             rpc 64B W=1 %v: request leg %v, response leg %v (p50 of %d)\n",
		c.rate, Nanos(percentile(req, 0.5)), Nanos(percentile(resp, 0.5)), len(req))

	// The small_mem shape untraced, with and without the Node's event ring,
	// alternating so drift hits both sides.
	var plain, ring []float64
	for round := 0; round < 2; round++ {
		for _, events := range []int{0, 4096} {
			c := l.nodeCell(netSpec{ID: 9, Size: 512 * Byte, W: 16, Mem: true, TraceEvents: events}, nil, 0)
			if events == 0 {
				plain = append(plain, float64(c.rate))
			} else {
				ring = append(ring, float64(c.rate))
			}
		}
	}
	rPlain, rRing := PerSecond(summarize(plain).Median), PerSecond(summarize(ring).Median)
	overhead := 0.0
	if rPlain > 0 {
		overhead = 1 - float64(rRing/rPlain)
	}
	l.set("trace.ring_overhead_frac", overhead)
	l.set("mtp.node_overhead_ns_512B", float64(rPlain.Interval())-l.cells["core.ns_per_msg_512B"].Median)
	fmt.Fprintf(l.out, "             512B W=16 untraced %v (%v/msg, %v above core); with TraceEvents=4096 %v (ring overhead %.1f%%)\n",
		rPlain, rPlain.Interval(), Nanos(l.cells["mtp.node_overhead_ns_512B"].Median), rRing, 100*overhead)

	// Floor: what the in-memory network itself costs per datagram.
	l.memnetFloor()
}

func (l *ladder) memnetFloor() {
	net := mtp.NewMemNetwork(l.seed)
	a, errA := net.Listen("a")
	b, errB := net.Listen("b")
	if errA != nil || errB != nil {
		l.faults++
		return
	}
	defer a.Close()
	defer b.Close()
	payload, in := make([]byte, 512+64), make([]byte, 2048)
	per, _ := perOp(l.n(50000), func() {
		if _, err := a.WriteTo(payload, b.LocalAddr()); err != nil {
			l.faults++
		}
		if n, _, err := b.ReadFrom(in); err != nil || n != len(payload) {
			l.faults++
		}
	})
	l.set("memnet.ns_per_dgram", float64(per))
	fmt.Fprintf(l.out, "             memnet floor: %v per %dB datagram (WriteTo + ReadFrom)\n", per, len(payload))
}
