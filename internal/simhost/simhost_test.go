package simhost

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"mtp/internal/core"
	"mtp/internal/sim"
	"mtp/internal/simnet"
	"mtp/internal/wire"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestMTPOverSimnet(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.NewNetwork(eng)
	ha := simnet.NewHost(net)
	hb := simnet.NewHost(net)
	path := uint32(1)
	ha.SetUplink(net.Connect(hb, simnet.LinkConfig{
		Rate: 10e9, Delay: us(5), QueueCap: 256, ECNThreshold: 20,
		Pathlet: &path, StampECN: true,
	}, "a->b"))
	hb.SetUplink(net.Connect(ha, simnet.LinkConfig{Rate: 10e9, Delay: us(5), QueueCap: 256}, "b->a"))

	var got []core.InMessage
	a := AttachMTP(net, ha, core.Config{LocalPort: 1})
	AttachMTP(net, hb, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) { got = append(got, *m) }})

	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(data)
	a.EP.Send(hb.ID(), 2, data, core.SendOptions{})
	eng.Run(100 * time.Millisecond)

	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if !bytes.Equal(got[0].Data, data) {
		t.Fatal("data corrupt over simnet")
	}
	// The sender must have learned the pathlet from stamped feedback.
	if _, ok := a.EP.Table().Lookup(wire.PathTC{PathID: 1, TC: 0}); !ok {
		t.Fatal("pathlet state missing")
	}
}

func TestMTPSaturatesBottleneck(t *testing.T) {
	eng := sim.NewEngine(2)
	net := simnet.NewNetwork(eng)
	ha := simnet.NewHost(net)
	hb := simnet.NewHost(net)
	path := uint32(3)
	ha.SetUplink(net.Connect(hb, simnet.LinkConfig{
		Rate: 10e9, Delay: us(5), QueueCap: 128, ECNThreshold: 20,
		Pathlet: &path, StampECN: true,
	}, "a->b"))
	hb.SetUplink(net.Connect(ha, simnet.LinkConfig{Rate: 10e9, Delay: us(5), QueueCap: 128}, "b->a"))

	var rcvd int
	a := AttachMTP(net, ha, core.Config{LocalPort: 1})
	AttachMTP(net, hb, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) { rcvd += m.Size }})

	// Long-running load: 40 MB across many messages.
	for i := 0; i < 40; i++ {
		a.EP.SendSynthetic(hb.ID(), 2, 1<<20, core.SendOptions{})
	}
	dur := ms(10)
	eng.Run(dur)
	gbps := float64(rcvd) * 8 / dur.Seconds() / 1e9
	// 10 Gbps link: require at least 70% utilization under DCTCP+ECN.
	if gbps < 7 {
		t.Fatalf("goodput %.2f Gbps on a 10 Gbps link", gbps)
	}
	if gbps > 10.01 {
		t.Fatalf("goodput %.2f Gbps exceeds line rate", gbps)
	}
}

func TestMTPManyToOneIncast(t *testing.T) {
	// 4 senders share one 10 Gbps bottleneck into the receiver.
	eng := sim.NewEngine(3)
	net := simnet.NewNetwork(eng)
	sw := simnet.NewSwitch(net, nil)
	dst := simnet.NewHost(net)
	path := uint32(9)
	down := net.Connect(dst, simnet.LinkConfig{
		Rate: 10e9, Delay: us(5), QueueCap: 128, ECNThreshold: 20,
		Pathlet: &path, StampECN: true,
	}, "sw->dst")
	sw.AddRoute(dst.ID(), down)

	perSender := make([]int, 4)
	var hosts []*MTPHost
	for i := 0; i < 4; i++ {
		h := simnet.NewHost(net)
		h.SetUplink(net.Connect(sw, simnet.LinkConfig{Rate: 40e9, Delay: us(1), QueueCap: 1024}, "up"))
		sw.AddRoute(h.ID(), net.Connect(h, simnet.LinkConfig{Rate: 40e9, Delay: us(1), QueueCap: 1024}, "down"))
		m := AttachMTP(net, h, core.Config{LocalPort: uint16(10 + i)})
		hosts = append(hosts, m)
	}
	AttachMTP(net, dst, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) {
		perSender[m.SrcPort-10] += m.Size
	}})
	// Receiver's ACKs go back through the switch.
	dst.SetUplink(net.Connect(sw, simnet.LinkConfig{Rate: 10e9, Delay: us(5), QueueCap: 1024}, "dst->sw"))

	for i, h := range hosts {
		for j := 0; j < 30; j++ {
			h.EP.SendSynthetic(dst.ID(), 2, 1<<20, core.SendOptions{})
		}
		_ = i
	}
	dur := ms(20)
	eng.Run(dur)
	total := 0
	for _, n := range perSender {
		total += n
	}
	gbps := float64(total) * 8 / dur.Seconds() / 1e9
	if gbps < 6.5 {
		t.Fatalf("aggregate %.2f Gbps on 10 Gbps bottleneck", gbps)
	}
	// Rough fairness: no sender should be starved.
	for i, n := range perSender {
		if n == 0 {
			t.Fatalf("sender %d starved: %v", i, perSender)
		}
	}
}

// Note: AttachMTP replaces the host handler; dst.SetUplink above must come
// after AttachMTP, which SetHandler already tolerates (uplink and handler
// are independent).

func TestOutputRequiresNodeID(t *testing.T) {
	eng := sim.NewEngine(4)
	net := simnet.NewNetwork(eng)
	h := simnet.NewHost(net)
	m := AttachMTP(net, h, core.Config{LocalPort: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad address type")
		}
	}()
	m.EP.Send("not-a-node", 2, []byte("x"), core.SendOptions{})
}
