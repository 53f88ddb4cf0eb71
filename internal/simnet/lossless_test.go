package simnet

import (
	"testing"
	"time"

	"mtp/internal/sim"
)

// losslessChain builds src -> swA -> swB -> dst where the swB->dst
// bottleneck is lossless and pauses the swA->swB link, which in turn pauses
// the src->swA link.
func losslessChain(t *testing.T, bottleneck float64) (*sim.Engine, *Host, *Host, *Link, *Link, *Link) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	src := NewHost(net)
	dst := NewHost(net)
	swA := NewSwitch(net, nil)
	swB := NewSwitch(net, nil)

	up := net.Connect(swA, LinkConfig{Rate: 10e9, Delay: us(1), QueueCap: 64, PauseThreshold: 32}, "src->A")
	src.SetUplink(up)
	mid := net.Connect(swB, LinkConfig{Rate: 10e9, Delay: us(1), QueueCap: 64, PauseThreshold: 32}, "A->B")
	swA.AddRoute(dst.ID(), mid)
	down := net.Connect(dst, LinkConfig{Rate: bottleneck, Delay: us(1), QueueCap: 64, PauseThreshold: 32}, "B->dst")
	swB.AddRoute(dst.ID(), down)

	// Pause wiring: a full downstream queue pauses the link feeding it.
	down.AddUpstream(mid)
	mid.AddUpstream(up)
	return eng, src, dst, up, mid, down
}

func TestLosslessNoDropsUnderOverload(t *testing.T) {
	eng, src, dst, up, mid, down := losslessChain(t, 1e9) // 10G into 1G
	delivered := 0
	dst.SetHandler(func(p *Packet) { delivered++ })
	// Offer 10 Gbps into the 1 Gbps bottleneck for 1 ms: without pause this
	// drops ~90%; with PFC everything queues and drains.
	const n = 400
	for i := 0; i < n; i++ {
		i := i
		eng.Schedule(time.Duration(i)*us(1), func() {
			src.Send(&Packet{Dst: dst.ID(), Size: 1250})
		})
	}
	eng.Run(50 * time.Millisecond) // long enough to fully drain at 1G
	if d := up.Stats().Drops + mid.Stats().Drops + down.Stats().Drops; d != 0 {
		t.Fatalf("lossless chain dropped %d packets", d)
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if down.Pauses() == 0 {
		t.Fatal("bottleneck never paused upstream")
	}
}

func TestLosslessBackpressurePropagates(t *testing.T) {
	eng, src, dst, up, mid, down := losslessChain(t, 1e9)
	dst.SetHandler(func(p *Packet) {})
	for i := 0; i < 600; i++ {
		i := i
		eng.Schedule(time.Duration(i)*us(1), func() {
			src.Send(&Packet{Dst: dst.ID(), Size: 1250})
		})
	}
	// Sample mid-run: the pause must have propagated so that the source
	// uplink itself holds packets (congestion spreading — PFC's cost).
	var midPaused, upHeld bool
	eng.Schedule(400*us(1), func() {
		midPaused = mid.paused || mid.QueueLen() > 0
		upHeld = up.QueueLen() > 0
	})
	eng.Run(50 * time.Millisecond)
	if !midPaused {
		t.Fatal("backpressure did not reach the middle hop")
	}
	if !upHeld {
		t.Fatal("backpressure did not spread to the edge link")
	}
	_, _ = down, dst
}

func TestDropTailUnchangedWithoutPauseThreshold(t *testing.T) {
	// Sanity: the same overload on a drop-tail chain still drops.
	eng := sim.NewEngine(2)
	net := NewNetwork(eng)
	src := NewHost(net)
	dst := NewHost(net)
	l := net.Connect(dst, LinkConfig{Rate: 1e9, Delay: us(1), QueueCap: 16}, "l")
	src.SetUplink(l)
	for i := 0; i < 400; i++ {
		i := i
		eng.Schedule(time.Duration(i)*us(1), func() {
			src.Send(&Packet{Dst: dst.ID(), Size: 1250})
		})
	}
	eng.Run(20 * time.Millisecond)
	if l.Stats().Drops == 0 {
		t.Fatal("drop-tail link dropped nothing under overload")
	}
}
