package mtp

import (
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestNodeRTOBounds pins what Config.RTO means to the engine: the timeout
// before the first RTT sample, the ceiling afterwards, and a 1 ms floor that an
// explicit smaller RTO overrides rather than being doubled by it.
func TestNodeRTOBounds(t *testing.T) {
	const floor = time.Millisecond
	for _, tc := range []struct{ rto, initial, floor, ceiling time.Duration }{
		{0, 20 * time.Millisecond, floor, 20 * time.Millisecond},
		{500 * time.Microsecond, 500 * time.Microsecond, 500 * time.Microsecond, 500 * time.Microsecond},
		{time.Millisecond, time.Millisecond, floor, time.Millisecond},
		{2 * time.Millisecond, 2 * time.Millisecond, floor, 2 * time.Millisecond},
		{20 * time.Millisecond, 20 * time.Millisecond, floor, 20 * time.Millisecond},
		{200 * time.Millisecond, 200 * time.Millisecond, floor, 200 * time.Millisecond},
	} {
		tn := &testNet{mem: NewMemNetwork(1)}
		n := tn.node(t, "a", Config{Port: 1, RTO: tc.rto})
		got := n.ep.Config()
		if got.RTO != tc.initial || got.MinRTO != tc.floor || got.MaxRTO != tc.ceiling {
			t.Errorf("RTO %v: initial %v floor %v ceiling %v, want %v %v %v",
				tc.rto, got.RTO, got.MinRTO, got.MaxRTO, tc.initial, tc.floor, tc.ceiling)
		}
		if _, _, ok := n.RTT("b"); ok {
			t.Errorf("RTO %v: RTT reported for a peer never sent to", tc.rto)
		}
	}
}

// sendSeq sends count small messages from na to nb one after another.
func sendSeq(t *testing.T, na, nb *Node, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		out, err := na.Send(nb.Addr().String(), 2, []byte("rtt probe"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, out, 10*time.Second)
	}
}

// On a clean path the timeout toward a peer comes down from Config.RTO to
// the floor and stays there. Not a single expiry would be the ideal, but a
// shared host stalls a goroutine past 1 ms now and then (the ACK is late, not
// lost: the trace shows it landing behind the retransmission), so the check is
// that expiries are the exception, and that the estimator shrugs one off.
func TestNodeRTOSettlesOnTheFloor(t *testing.T) {
	eachNet(t, 41, func(t *testing.T, tn *testNet) {
		na, nb, _ := tn.pair(t, Config{Port: 1}, Config{Port: 2})
		floor := na.ep.Config().MinRTO
		if _, rto, ok := na.RTT(nb.Addr().String()); ok {
			t.Fatalf("RTT toward an unsent-to peer: rto %v", rto)
		}
		const count = 300
		sendSeq(t, na, nb, count)
		srtt, rto, ok := na.RTT(nb.Addr().String())
		for extra := 0; rto > 2*floor && extra < 5; extra++ { // a stall among the last samples
			sendSeq(t, na, nb, 50)
			srtt, rto, ok = na.RTT(nb.Addr().String())
		}
		if !ok || srtt <= 0 || rto > 2*floor {
			t.Fatalf("after %d clean messages: srtt %v rto %v ok %v, want rto <= %v", count, srtt, rto, ok, 2*floor)
		}
		st := na.Stats()
		t.Logf("clean path: %d timeouts, %d retransmissions over %d messages", st.Timeouts, st.PktsRetx, st.MsgsSent)
		if st.Timeouts > count/20 {
			t.Fatalf("clean path: %d timeouts, %d retransmissions over %d messages", st.Timeouts, st.PktsRetx, st.MsgsSent)
		}
	})
}

// holdConn delays every datagram it sends by *hold (none while zero), the way
// a path that suddenly lengthens does.
type holdConn struct {
	net.PacketConn
	hold *atomic.Int64
}

func (c holdConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	d := time.Duration(c.hold.Load())
	if d == 0 {
		return c.PacketConn.WriteTo(p, addr)
	}
	cp := append([]byte(nil), p...)
	time.AfterFunc(d, func() { _, _ = c.PacketConn.WriteTo(cp, addr) }) // a write after Close fails, as intended
	return len(p), nil
}

// A path that lengthens from loopback to 20 ms round trip under a timeout that
// had settled on the 1 ms floor: the timeout backs off past the new RTT in a
// bounded number of rounds, the first clean sample keeps it there, and the
// retransmissions stop.
func TestNodeRTOClimbsToALongerPath(t *testing.T) {
	const hold = 10 * time.Millisecond
	eachNet(t, 43, func(t *testing.T, tn *testNet) {
		var held atomic.Int64
		tn.wrap = func(pc net.PacketConn) net.PacketConn { return holdConn{pc, &held} }
		na, nb, _ := tn.pair(t, Config{Port: 1, RTO: 200 * time.Millisecond}, Config{Port: 2})
		sendSeq(t, na, nb, 100)
		if _, rto, _ := na.RTT(nb.Addr().String()); rto >= 2*hold {
			t.Fatalf("rto %v on the clean path, want well under %v", rto, 2*hold)
		}

		held.Store(int64(hold))
		sendSeq(t, na, nb, 3)
		_, rto, _ := na.RTT(nb.Addr().String())
		st := na.Stats()
		if rto <= 2*hold || st.RTOBackoffs == 0 || st.RTOBackoffs > 16 {
			t.Fatalf("rto %v after %d backoffs, want above the %v round trip within 16", rto, st.RTOBackoffs, 2*hold)
		}
		// From here on a retransmission is a stray (a late timer against a
		// margin of 4*rttvar), not the rule.
		sendSeq(t, na, nb, 20)
		if more := na.Stats().PktsRetx - st.PktsRetx; more > 4 {
			t.Fatalf("%d retransmissions over 20 messages after the timeout adapted", more)
		}
	})
}
