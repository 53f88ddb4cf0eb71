package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mtp/internal/sim"
)

// TestStrictPriorityServesHighQueueFirst: with strict priority, queue 1
// drains before queue 0 regardless of arrival order.
func TestStrictPriorityServesHighQueueFirst(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	a := NewHost(net)
	b := NewHost(net)
	l := net.Connect(b, LinkConfig{
		Rate: 1e9, Delay: us(1), Queues: 2, QueueCap: 100, StrictPriority: true,
		Classify: func(p *Packet) int { return p.Tenant },
	}, "a->b")
	a.SetUplink(l)
	col := &collector{eng: eng}
	b.SetHandler(col.handle)

	// Low priority first, then high priority; all at t=0.
	for i := 0; i < 10; i++ {
		a.Send(&Packet{Dst: b.ID(), Size: 1250, Tenant: 0})
	}
	for i := 0; i < 5; i++ {
		a.Send(&Packet{Dst: b.ID(), Size: 1250, Tenant: 1})
	}
	eng.Run(time.Millisecond)
	if len(col.pkts) != 15 {
		t.Fatalf("delivered %d", len(col.pkts))
	}
	// First delivery is the packet that was already in transmission (low),
	// but every high-priority packet must beat the remaining low ones.
	highSeen := 0
	for i, p := range col.pkts {
		if p.Tenant == 1 {
			highSeen++
			if i > 5 { // 1 in-flight low + 5 high = first 6 slots
				t.Fatalf("high-priority packet delivered at position %d: %v", i, tenants(col.pkts))
			}
		}
	}
	if highSeen != 5 {
		t.Fatalf("high deliveries = %d", highSeen)
	}
}

func tenants(pkts []*Packet) []int {
	out := make([]int, len(pkts))
	for i, p := range pkts {
		out[i] = p.Tenant
	}
	return out
}

// TestQuickLinkNeverExceedsCapacity: delivered bytes over any run cannot
// exceed line rate × time (plus one in-flight packet).
func TestQuickLinkNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		net := NewNetwork(eng)
		a := NewHost(net)
		b := NewHost(net)
		rate := float64(1+r.Intn(100)) * 1e9
		l := net.Connect(b, LinkConfig{Rate: rate, Delay: us(1), QueueCap: 64}, "l")
		a.SetUplink(l)
		var delivered uint64
		b.SetHandler(func(p *Packet) { delivered += uint64(p.Size) })

		dur := time.Duration(100+r.Intn(900)) * time.Microsecond
		// Offered load up to 4x capacity at random times.
		n := 50 + r.Intn(400)
		for i := 0; i < n; i++ {
			at := time.Duration(r.Int63n(int64(dur)))
			size := 64 + r.Intn(1436)
			eng.Schedule(at, func() {
				a.Send(&Packet{Dst: b.ID(), Size: size})
			})
		}
		eng.Run(dur)
		capacity := rate / 8 * dur.Seconds()
		return float64(delivered) <= capacity+1500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPacketConservation: every enqueued packet is exactly one of
// {delivered, dropped, still queued or in flight} — nothing is duplicated
// or lost silently.
func TestQuickPacketConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		net := NewNetwork(eng)
		a := NewHost(net)
		b := NewHost(net)
		cap := 2 + r.Intn(30)
		l := net.Connect(b, LinkConfig{Rate: 1e9, Delay: us(5), QueueCap: cap}, "l")
		a.SetUplink(l)
		delivered := 0
		b.SetHandler(func(p *Packet) { delivered++ })
		n := 1 + r.Intn(300)
		for i := 0; i < n; i++ {
			at := time.Duration(r.Int63n(int64(time.Millisecond)))
			eng.Schedule(at, func() {
				a.Send(&Packet{Dst: b.ID(), Size: 500})
			})
		}
		eng.Run(10 * time.Millisecond) // drain completely
		st := l.Stats()
		if delivered != int(st.TxPackets) {
			return false
		}
		return delivered+int(st.Drops) == n && l.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFairSharePolicerNeverStarvesInShare: a tenant that stays within
// its share is never marked or dropped by the policer.
func TestQuickFairSharePolicerNeverStarvesInShare(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		net := NewNetwork(eng)
		a := NewHost(net)
		b := NewHost(net)
		pol := &FairSharePolicer{}
		l := net.Connect(b, LinkConfig{Rate: 10e9, Delay: us(1), QueueCap: 4096, Policer: pol}, "l")
		a.SetUplink(l)
		marked0, n0 := 0, 0
		b.SetHandler(func(p *Packet) {
			if p.Tenant == 0 {
				n0++
				if p.CE {
					marked0++
				}
			}
		})
		// Tenant 0 sends at ~25% of capacity (half its share); tenant 1
		// floods at random high rates.
		gap := us(4) // 1250B / 4µs = 2.5 Gbps
		for i := 0; i < 200; i++ {
			at := time.Duration(i) * gap
			eng.Schedule(at, func() {
				a.Send(&Packet{Dst: b.ID(), Size: 1250, Tenant: 0, ECNCapable: true})
				for j := 0; j < 2+r.Intn(6); j++ {
					a.Send(&Packet{Dst: b.ID(), Size: 1250, Tenant: 1, ECNCapable: true})
				}
			})
		}
		eng.Run(20 * time.Millisecond)
		return n0 > 0 && marked0 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
