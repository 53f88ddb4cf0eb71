package exp

import (
	"testing"
	"time"

	"mtp/internal/core"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
)

// TestRigBuilders sends one MTP message each way across every shape the kit
// builds and checks the hop count of both directions and the order in which
// the builder allocated its nodes. Node IDs are MTP addresses and the fault
// timelines print them, so the allocation order is part of a builder's
// contract.
func TestRigBuilders(t *testing.T) {
	// Serialization is negligible at this rate, so a one-packet message
	// completes one microsecond per hop after it was sent.
	lc := simnet.LinkConfig{Rate: 1e15, Delay: time.Microsecond}
	for _, tc := range []struct {
		name     string
		build    func() (r *rig, a, b *simnet.Host, order []simnet.Node)
		fwd, rev int // hops a → b and b → a
	}{
		{"star", func() (*rig, *simnet.Host, *simnet.Host, []simnet.Node) {
			r := newRig(1)
			hosts, sw := r.star(3, lc)
			return r, hosts[0], hosts[2], []simnet.Node{sw, hosts[0], hosts[1], hosts[2]}
		}, 2, 2},
		{"pair", func() (*rig, *simnet.Host, *simnet.Host, []simnet.Node) {
			r := newRig(1)
			a, b, sw := r.pair(lc, lc)
			return r, a, b, []simnet.Node{a, b, sw}
		}, 2, 1},
		{"twopath", func() (*rig, *simnet.Host, *simnet.Host, []simnet.Node) {
			tp := newTwoPath(twoPathSpec{
				FastRate: 1e15, SlowRate: 1e15, EdgeRate: 1e15,
				LinkDelay: time.Microsecond, SlowDelay: time.Microsecond, Seed: 1,
			})
			if tp.fast.Dst() != tp.rcv || tp.slow.Dst() != tp.rcv {
				t.Error("twopath: fast and slow do not both end at the receiver")
			}
			return tp.rig, tp.snd, tp.rcv, []simnet.Node{tp.snd, tp.rcv}
		}, 2, 1},
	} {
		r, a, b, order := tc.build()
		for i, n := range order {
			if n.ID() != simnet.NodeID(i) {
				t.Errorf("%s: node %d of the documented order has ID %d", tc.name, i, n.ID())
			}
		}
		hops := map[simnet.NodeID]int{} // by receiving host
		for _, ends := range [][2]*simnet.Host{{a, b}, {b, a}} {
			from, to := ends[0], ends[1]
			simhost.AttachMTP(r.net, from, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) {
				hops[from.ID()] = int(m.Complete / time.Microsecond)
			}}).EP.Send(to.ID(), 2, []byte("ping"), core.SendOptions{})
		}
		r.eng.Run(time.Millisecond)
		if hops[b.ID()] != tc.fwd || hops[a.ID()] != tc.rev {
			t.Errorf("%s: %d hops forward and %d back, want %d and %d",
				tc.name, hops[b.ID()], hops[a.ID()], tc.fwd, tc.rev)
		}
	}
}
