package main

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mtp/internal/udpnet"
	"mtp/internal/wire"
)

// rungTimeout bounds any wait for datagrams that may have been dropped.
const rungTimeout = 3 * time.Second

// plainConn hides a socket's concrete type so udpnet picks its portable
// one-datagram connIO path, the one the lossy_udp workload runs on.
type plainConn struct{ net.PacketConn }

// transportPair is two bare udpnet.Transports on loopback sockets.
type transportPair struct {
	a, b       *udpnet.Transport
	toB        netip.AddrPort
	gotA, gotB atomic.Int64
	pong       chan struct{} // signalled (never blocking) when a receives
	// echo makes b return every datagram to its sender.
	echo bool
}

func newTransportPair(connIO, echo bool) (*transportPair, error) {
	p := &transportPair{echo: echo, pong: make(chan struct{}, 1)}
	listen := func() (net.PacketConn, error) {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err == nil && connIO {
			pc = plainConn{pc}
		}
		return pc, err
	}
	ca, err := listen()
	if err != nil {
		return nil, err
	}
	cb, err := listen()
	if err != nil {
		ca.Close()
		return nil, err
	}
	p.a, err = udpnet.NewTransport(udpnet.Config{Conn: ca, OnPacket: func(netip.AddrPort, *wire.Header, []byte) {
		p.gotA.Add(1)
		select {
		case p.pong <- struct{}{}:
		default:
		}
	}})
	if err == nil {
		p.b, err = udpnet.NewTransport(udpnet.Config{Conn: cb, OnPacket: func(from netip.AddrPort, h *wire.Header, data []byte) {
			p.gotB.Add(1)
			if p.echo {
				p.b.Send(from, h, data)
			}
		}})
	}
	if err != nil {
		ca.Close()
		cb.Close()
		return nil, err
	}
	p.toB = p.b.LocalAddrPort()
	p.a.Start()
	p.b.Start()
	return p, nil
}

func (p *transportPair) close() {
	p.a.Close()
	p.b.Close()
}

func dataHeader(payload int) wire.Header {
	return wire.Header{
		Type: wire.TypeData, SrcPort: sourcePort, DstPort: sinkPort, Epoch: 1,
		MsgID: 1, MsgBytes: uint32(payload), MsgPkts: 1, PktLen: uint16(payload),
	}
}

// burstWindow is how many datagrams burst keeps in flight: two full mmsg
// batches, and few enough to fit the default socket buffer that a wrapped
// (non-UDPConn) socket keeps.
const burstWindow = 64

// burst pushes n datagrams one way with at most burstWindow outstanding and
// returns the time per datagram; ok is false if datagrams went missing.
func (p *transportPair) burst(n int) (per Nanos, allocs float64, ok bool) {
	hdr := dataHeader(512)
	payload := make([]byte, 512)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(rungTimeout)
	for sent := int64(0); sent < int64(n); {
		if sent-p.gotB.Load() >= burstWindow || !p.a.Send(p.toB, &hdr, payload) {
			if time.Now().After(deadline) {
				return 0, 0, false
			}
			runtime.Gosched()
			continue
		}
		sent++
	}
	for p.gotB.Load() < int64(n) {
		if time.Now().After(deadline) {
			return 0, 0, false
		}
		runtime.Gosched()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return NanosPer(elapsed, int64(n)), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), true
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (l *ladder) udpnetRung() {
	fmt.Fprintf(l.out, "  udpnet   two bare Transports on UDP loopback, benchmark-built headers\n")
	n := l.n(50000)

	if p, err := newTransportPair(false, false); err != nil {
		l.faults++
	} else {
		per, allocs, ok := p.burst(n)
		sa, sb := p.a.Stats(), p.b.Stats()
		p.close()
		if !ok {
			l.faults++
		}
		l.set("udpnet.ns_per_pkt_burst", float64(per))
		l.set("udpnet.allocs_per_pkt", allocs)
		l.set("udpnet.dgrams_per_syscall_out", ratio(sa.DatagramsOut, sa.BatchesOut))
		l.set("udpnet.dgrams_per_syscall_in", ratio(sb.DatagramsIn, sb.BatchesIn))
		l.set("udpnet.ring_full_drops", float64(sa.RingFullDrops))
		fmt.Fprintf(l.out, "             512B burst %v/pkt, %.1f dgrams/sendmmsg, %.1f dgrams/recvmmsg, %.2f allocs/pkt, %d ring-full drops\n",
			per, ratio(sa.DatagramsOut, sa.BatchesOut), ratio(sb.DatagramsIn, sb.BatchesIn), allocs, sa.RingFullDrops)
	}

	if p, err := newTransportPair(true, false); err != nil {
		l.faults++
	} else {
		per, _, ok := p.burst(n)
		p.close()
		if !ok {
			l.faults++
		}
		l.set("udpnet.connio_ns_per_pkt", float64(per))
		fmt.Fprintf(l.out, "             512B burst through a non-UDPConn wrapper (connIO, the lossy_udp path) %v/pkt\n", per)
	}

	if p, err := newTransportPair(false, true); err != nil {
		l.faults++
	} else {
		hdr := dataHeader(64)
		payload := make([]byte, 64)
		var rtts []float64
		lost := time.NewTimer(rungTimeout)
	rounds:
		for i := 0; i < l.n(4000); i++ {
			t0 := time.Now()
			p.a.Send(p.toB, &hdr, payload)
			select {
			case <-p.pong:
				rtts = append(rtts, float64(time.Since(t0)))
			case <-lost.C:
				l.faults++
				break rounds
			}
		}
		lost.Stop()
		p.close()
		sort.Float64s(rtts)
		rtt := Nanos(percentile(rtts, 0.5))
		l.set("udpnet.rtt_us_p50", rtt.Micros())
		fmt.Fprintf(l.out, "             64B ping-pong rtt p50 %v over %d rounds\n", rtt, len(rtts))
	}

	l.wheelRung()
}

func (l *ladder) wheelRung() {
	w := udpnet.NewWheel(0, 0)
	defer w.Close()
	t := udpnet.NewTimer(func() {})
	sched, _ := perOp(l.n(100000), func() { w.Schedule(t, 5*time.Millisecond) })
	w.Stop(t)

	const delay = 5 * time.Millisecond
	n := l.n(200)
	late := make([]float64, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		var t0 time.Time
		tm := udpnet.NewTimer(func() {
			late[i] = float64(time.Since(t0) - delay)
			wg.Done()
		})
		t0 = time.Now()
		w.Schedule(tm, delay)
		time.Sleep(250 * time.Microsecond)
	}
	wg.Wait()
	sort.Float64s(late)
	p50, p99 := Nanos(percentile(late, 0.5)), Nanos(percentile(late, 0.99))
	l.set("udpnet.wheel_schedule_ns", float64(sched))
	l.set("udpnet.timer_late_us_p50", p50.Micros())
	l.set("udpnet.timer_late_us_p99", p99.Micros())
	fmt.Fprintf(l.out, "             wheel Schedule %v; 5ms timers fire late by p50 %v p99 %v (n=%d)\n", sched, p50, p99, n)
}

// udpRTT is the floor under every UDP number: the median round trip of a 64 B
// datagram between two raw net.UDPConns, no MTP involved.
func udpRTT(rounds int) Nanos {
	a, b, err := rawUDPPair()
	if err != nil {
		return 0
	}
	echoDone := make(chan struct{})
	defer func() {
		a.Close()
		b.Close() // stops the echo goroutine
		<-echoDone
	}()
	go func() {
		defer close(echoDone)
		buf := make([]byte, 2048)
		for {
			n, from, err := b.ReadFrom(buf)
			if err != nil {
				return
			}
			if _, err := b.WriteTo(buf[:n], from); err != nil {
				return
			}
		}
	}()
	msg, buf := make([]byte, 64), make([]byte, 2048)
	var rtts []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if _, err := a.WriteTo(msg, b.LocalAddr()); err != nil {
			break
		}
		a.SetReadDeadline(t0.Add(rungTimeout))
		if _, _, err := a.ReadFrom(buf); err != nil {
			break
		}
		rtts = append(rtts, float64(time.Since(t0)))
	}
	sort.Float64s(rtts)
	return Nanos(percentile(rtts, 0.5))
}

// spinSink keeps cpuSpin's loop from being optimised away.
var spinSink uint64

// cpuSpin is the host-speed gauge: the median time of a fixed loop of integer
// work over a 512 KB table, no system calls, no allocation, no other
// goroutine. On this class of VM it moves by up to 2x when a neighbour is
// busy, and every time-based metric moves with it.
func cpuSpin() Nanos {
	table := make([]uint64, 1<<16)
	var times []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 200000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&(1<<16-1)] += x
		}
		spinSink += x
		times = append(times, float64(time.Since(t0)))
	}
	sort.Float64s(times)
	return Nanos(percentile(times, 0.5))
}

func rawUDPPair() (a, b net.PacketConn, err error) {
	if a, err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	if b, err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

func (l *ladder) osRung() {
	rtt := udpRTT(l.n(4000))
	l.set("os.udp_rtt_us_p50", rtt.Micros())
	l.set("os.spin_us_p50", cpuSpin().Micros())

	// One-way cost of a 576 B datagram (512 B payload + a header's worth)
	// through the kernel: write it, read it, same goroutine.
	a, b, err := rawUDPPair()
	if err != nil {
		l.faults++
		return
	}
	defer a.Close()
	defer b.Close()
	msg, buf := make([]byte, 576), make([]byte, 2048)
	per, _ := perOp(l.n(20000), func() {
		if _, err := a.WriteTo(msg, b.LocalAddr()); err != nil {
			l.faults++
		}
		if _, _, err := b.ReadFrom(buf); err != nil {
			l.faults++
		}
	})
	l.set("os.udp_ns_per_dgram", float64(per))
	fmt.Fprintf(l.out, "  os       raw net.UDPConn floor: 64B rtt p50 %v; 576B write+read %v/dgram\n", rtt, per)
}
