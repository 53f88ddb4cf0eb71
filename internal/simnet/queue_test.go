package simnet

import (
	"math/rand"
	"testing"

	"mtp/internal/sim"
)

// txRecorder is an Observer that hands every transmit completion to a
// callback and ignores the rest.
type txRecorder struct{ done func(*Packet) }

func (r *txRecorder) PacketEnqueued(*Link, *Packet, int, int, bool)  {}
func (r *txRecorder) PacketDropped(*Link, *Packet, DropReason)       {}
func (r *txRecorder) PacketTrimmed(*Link, *Packet)                   {}
func (r *txRecorder) PacketDuplicated(*Link, *Packet, *Packet)       {}
func (r *txRecorder) PacketTxDone(_ *Link, pkt *Packet)              { r.done(pkt) }
func (r *txRecorder) PacketDelivered(*Link, *Packet)                 {}
func (r *txRecorder) SwitchDropped(*Switch, *Packet)                 {}
func (r *txRecorder) ForwardChosen(*Switch, *Packet, *Link, []*Link) {}
func (r *txRecorder) PacketReleased(*Packet)                         {}

// queueModel is the egress discipline written over plain slices: one
// packet on the wire, and the next one picked by strict priority or
// round-robin when it finishes.
type queueModel struct {
	queues [][]*Packet
	rr     int
	strict bool
	wire   *Packet
}

func (m *queueModel) next() {
	m.wire = nil
	n := len(m.queues)
	for i := 0; i < n; i++ {
		qi := (m.rr + i) % n
		if m.strict {
			qi = n - 1 - i
		}
		if len(m.queues[qi]) > 0 {
			m.wire = m.queues[qi][0]
			m.queues[qi] = m.queues[qi][1:]
			m.rr = (qi + 1) % n
			return
		}
	}
}

func (m *queueModel) totals() (pkts, bytes int) {
	for _, q := range m.queues {
		pkts += len(q)
		for _, p := range q {
			bytes += p.Size
		}
	}
	return pkts, bytes
}

// TestQueueRingVsSlices drives random enqueues, partial drains and
// FlushQueues on multi-queue links, round-robin and strict priority, and
// requires the link to transmit in the model's order with the model's
// QueueLen and QueueBytes after every step.
func TestQueueRingVsSlices(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		nq := 1 + r.Intn(4)
		m := &queueModel{queues: make([][]*Packet, nq), strict: seed%2 == 0}
		eng := sim.NewEngine(seed)
		net := NewNetwork(eng)
		b := NewHost(net)
		b.SetHandler(func(*Packet) {})
		l := net.Connect(b, LinkConfig{
			Rate: 8e9, Delay: 100, Queues: nq, QueueCap: 1 << 20,
			StrictPriority: m.strict,
			Classify:       func(p *Packet) int { return p.Tenant },
		}, "a->b")
		sent := 0
		net.SetObserver(&txRecorder{done: func(pkt *Packet) {
			if pkt != m.wire {
				t.Fatalf("seed %d: transmitted packet %d (queue %d), model expects %v", seed, pkt.FlowID, pkt.Tenant, m.wire)
			}
			sent++
			m.next()
		}})
		for step := 0; step < 3000; step++ {
			switch op := r.Intn(20); {
			case op < 12:
				pkt := &Packet{Dst: b.ID(), Size: 64 + r.Intn(1500), Tenant: r.Intn(nq), FlowID: uint64(step)}
				m.queues[pkt.Tenant] = append(m.queues[pkt.Tenant], pkt)
				if m.wire == nil {
					m.next()
				}
				l.Enqueue(pkt)
			case op < 19:
				eng.Run(eng.Now() + sim.Time(r.Intn(4000)))
			default:
				n, _ := m.totals()
				for i := range m.queues {
					m.queues[i] = nil
				}
				if got := l.FlushQueues(); got != n {
					t.Fatalf("seed %d step %d: FlushQueues = %d, model %d", seed, step, got, n)
				}
			}
			n, bytes := m.totals()
			if l.QueueLen() != n || l.QueueBytes() != bytes {
				t.Fatalf("seed %d step %d: QueueLen %d QueueBytes %d, model %d %d",
					seed, step, l.QueueLen(), l.QueueBytes(), n, bytes)
			}
		}
		eng.RunAll(1 << 20)
		if m.wire != nil || l.QueueLen() != 0 || l.QueueBytes() != 0 || sent == 0 {
			t.Fatalf("seed %d: drained to QueueLen %d QueueBytes %d, model wire %v, %d sent",
				seed, l.QueueLen(), l.QueueBytes(), m.wire, sent)
		}
	}
}
