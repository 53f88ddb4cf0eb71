package mtp

import (
	"net"
	"net/netip"
	"testing"
	"time"
)

// TestFromAddrKeys covers the peer-key to net.Addr mapping on both
// networks: uncached and cached netip keys, and unknown key types.
func TestFromAddrKeys(t *testing.T) {
	eachNet(t, 1, func(t *testing.T, tn *testNet) {
		node := tn.node(t, "a", Config{Port: 1})
		ap, want := netip.MustParseAddrPort("10.1.2.3:77"), "10.1.2.3:77"
		if tn.mem != nil {
			ap, want = memAddr("peer-x").AddrPort(), "peer-x"
		}
		got := node.fromAddr(ap)
		if got.String() != want || got.Network() != node.Addr().Network() {
			t.Fatalf("uncached key: %v", got)
		}
		if node.fromByAP[ap] != got {
			t.Fatal("miss did not fill the cache")
		}
		cached := &net.UDPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 77}
		node.fromByAP[ap] = cached
		if got := node.fromAddr(ap); got != net.Addr(cached) {
			t.Fatalf("cached key not reused: %v", got)
		}
		if got := node.fromAddr(42); got != nil {
			t.Fatalf("unknown key type: %v", got)
		}
	})
}

// TestMemConnDeadlines pins the net.PacketConn no-op deadline surface the
// in-memory network must provide (the transport sets deadlines on real
// sockets; memnet accepts and ignores them).
func TestMemConnDeadlines(t *testing.T) {
	mn := NewMemNetwork(1)
	pc, err := mn.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	now := time.Now()
	if err := pc.SetReadDeadline(now); err != nil {
		t.Fatal(err)
	}
	if err := pc.SetWriteDeadline(now); err != nil {
		t.Fatal(err)
	}
	if err := pc.SetDeadline(now); err != nil {
		t.Fatal(err)
	}
}
