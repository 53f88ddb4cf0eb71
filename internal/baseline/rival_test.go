package baseline

import (
	"testing"
	"time"

	"mtp/internal/topo"
)

// wiringFabric is a two-leaf fabric whose trunks are slow, shallow and mark no
// ECN, so three concurrent messages from one host lose packets under every
// rival.
func wiringFabric() *topo.Fabric {
	host := topo.LinkSpec{Rate: 10e9, Delay: time.Microsecond, QueueCap: 12, ECNThreshold: -1}
	trunk := host
	trunk.Rate = 2e9
	return topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 1, HostLink: host, FabricLink: trunk, Seed: 1,
	})
}

var wiringSizes = []int{64 << 10, 256 << 10, 512 << 10}

// handWired sends wiringSizes from host 0 to host 1 with the transport's
// constructors called directly — the wiring the adapter replaces — and
// returns the senders' own retransmit counters after the run: per message,
// or one connection-wide total for a multiplexed rival. The simulator is
// deterministic, so the adapter on an identical fabric must report the same.
func handWired(rv Rival) []uint64 {
	fab := wiringFabric()
	snd, rcv := fab.Host(0), fab.Host(1)
	sd, rd := NewDemux(), NewDemux()
	snd.SetHandler(sd.Handle)
	rcv.SetHandler(rd.Handle)
	var counters []func() uint64
	var quic *QUICSender
	for i, size := range wiringSizes {
		id := uint64(i + 1)
		switch rv.kind {
		case kindDCTCP:
			s := NewSender(fab.Eng, snd, SenderConfig{Conn: id, Dst: rcv.ID(), SkipHandshake: true, RTO: time.Millisecond})
			r := NewReceiver(fab.Eng, rcv, ReceiverConfig{Conn: id, Src: snd.ID()})
			sd.Add(id, s.OnPacket)
			rd.Add(id, r.OnPacket)
			s.Write(size)
			s.Close()
			counters = append(counters, func() uint64 { return s.SegsRetx })
		case kindMPTCP:
			conns := []uint64{id << 1, id<<1 | 1}
			m := NewMPTCP(fab.Eng, snd, MPTCPConfig{Conns: conns, Dst: rcv.ID(), RTO: time.Millisecond, Coupling: rv.coupling})
			r := NewMPTCPReceiver(fab.Eng, rcv, snd.ID(), conns)
			for j, s := range m.Subflows() {
				sd.Add(conns[j], s.OnPacket)
				rd.Add(conns[j], r.OnPacket)
			}
			m.Write(size)
			counters = append(counters, func() uint64 { return m.Subflows()[0].SegsRetx + m.Subflows()[1].SegsRetx })
		case kindQUIC:
			if quic == nil {
				conn := uint64(1<<62 | 0<<24 | 1)
				quic = NewQUICSender(fab.Eng, snd, QUICSenderConfig{Conn: conn, Dst: rcv.ID(), RTO: time.Millisecond})
				r := NewQUICReceiver(fab.Eng, rcv, QUICReceiverConfig{Conn: conn, Src: snd.ID()})
				sd.Add(conn, quic.OnPacket)
				rd.Add(conn, r.OnPacket)
				counters = append(counters, func() uint64 { return quic.PktsRetx })
			}
			quic.OpenStream(id, int64(size))
		}
	}
	fab.Eng.Run(100 * time.Millisecond)
	out := make([]uint64, len(counters))
	for i, c := range counters {
		out[i] = c()
	}
	return out
}

// TestWiringEveryRival drives each registered rival through the adapter —
// three concurrent messages between two hosts — and checks completion order,
// the bytes each receiving side holds, and that the retransmissions handed to
// the done callbacks are the senders' own counters.
func TestWiringEveryRival(t *testing.T) {
	for _, name := range RivalNames() {
		t.Run(name, func(t *testing.T) {
			rv := MustRival(name)
			fab := wiringFabric()
			delivered := 0
			w := rv.Wire(fab.Eng, fab, WireConfig{RTO: time.Millisecond, OnDelivered: func() { delivered++ }})
			var order []int
			retx := make([]uint64, len(wiringSizes))
			received := make([]func() uint64, len(wiringSizes))
			for i, size := range wiringSizes {
				m := Msg{Src: 0, Dst: 1, Size: size, ID: uint64(i + 1), Stream: uint64(i + 1)}
				received[i] = w.Expect(m)
				w.Start(m, func(_ time.Duration, r uint64) {
					order = append(order, i)
					retx[i] = r
				})
			}
			fab.Eng.Run(100 * time.Millisecond)

			if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
				t.Fatalf("completion order %v, want the three messages smallest first", order)
			}
			if delivered != 3 {
				t.Errorf("OnDelivered fired %d times, want 3", delivered)
			}
			for i, size := range wiringSizes {
				want := uint64(size)
				if rv.Multiplexed { // one connection carries all three
					want = uint64(wiringSizes[0] + wiringSizes[1] + wiringSizes[2])
				}
				if got := received[i](); got != want {
					t.Errorf("message %d: receiving side holds %d bytes, want %d", i, got, want)
				}
			}

			want := handWired(rv)
			if rv.Multiplexed { // the connection's total, split over its streams' callbacks
				retx = []uint64{retx[0] + retx[1] + retx[2]}
			}
			var sum uint64
			for i := range want {
				sum += want[i]
				if retx[i] != want[i] {
					t.Errorf("done reported %v retransmissions, the senders counted %v", retx, want)
					break
				}
			}
			if sum == 0 {
				t.Error("nothing was retransmitted: the fabric is too roomy to test the counters")
			}
			if n := w.Unreported(); n != 0 {
				t.Errorf("%d retransmissions left unreported after every message completed", n)
			}
		})
	}
}
