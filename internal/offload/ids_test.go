package offload

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"mtp/internal/core"
	"mtp/internal/simhost"
)

func TestIDSDetectsAcrossPacketBoundary(t *testing.T) {
	eng, net, sw, hosts := star(21, 2)
	client, server := hosts[0], hosts[1]
	ids := NewIDS(sw, [][]byte{[]byte("EVIL-SIGNATURE")}, false)

	var got []core.InMessage
	c := simhost.AttachMTP(net, client, core.Config{LocalPort: 9, MSS: 1000})
	simhost.AttachMTP(net, server, core.Config{LocalPort: 7, OnMessage: func(m *core.InMessage) {
		got = append(got, *m)
	}})

	// Place the signature straddling the packet boundary at offset 995.
	data := make([]byte, 5000)
	rand.New(rand.NewSource(1)).Read(data)
	copy(data[995:], "EVIL-SIGNATURE")
	c.EP.Send(server.ID(), 7, data, core.SendOptions{})
	eng.Run(10 * time.Millisecond)

	if ids.Matches != 1 {
		t.Fatalf("matches = %d (cross-boundary signature missed)", ids.Matches)
	}
	// Detection mode forwards everything.
	if len(got) != 1 || !bytes.Equal(got[0].Data, data) {
		t.Fatal("detection mode corrupted traffic")
	}
	if len(ids.flows) != 0 {
		t.Fatalf("leaked %d flow states", len(ids.flows))
	}
}

func TestIDSInlineBlocksFlaggedMessageOnly(t *testing.T) {
	eng, net, sw, hosts := star(22, 2)
	client, server := hosts[0], hosts[1]
	ids := NewIDS(sw, [][]byte{[]byte("ATTACK")}, true)

	var got []core.InMessage
	c := simhost.AttachMTP(net, client, core.Config{LocalPort: 9, MSS: 1000, RTO: 2 * time.Millisecond})
	simhost.AttachMTP(net, server, core.Config{LocalPort: 7, OnMessage: func(m *core.InMessage) {
		got = append(got, *m)
	}})

	benign := make([]byte, 3000)
	for i := range benign {
		benign[i] = byte('a' + i%26)
	}
	malicious := append([]byte(nil), benign...)
	copy(malicious[1500:], "ATTACK")

	c.EP.Send(server.ID(), 7, benign, core.SendOptions{})
	c.EP.Send(server.ID(), 7, malicious, core.SendOptions{})
	c.EP.Send(server.ID(), 7, benign, core.SendOptions{})
	eng.Run(8 * time.Millisecond)

	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2 benign", len(got))
	}
	for _, m := range got {
		if bytes.Contains(m.Data, []byte("ATTACK")) {
			t.Fatal("malicious message delivered")
		}
	}
	// Every retransmission round of the blocked message re-matches, so the
	// counter is at least one.
	if ids.Matches == 0 {
		t.Fatal("signature never matched")
	}
	if ids.DroppedPkts == 0 {
		t.Fatal("inline mode dropped nothing")
	}
	// The blocked message keeps the sender retrying — observable IPS
	// behaviour, not silent corruption.
	if c.EP.Pending() == 0 {
		t.Fatal("flagged message reported complete despite inline block")
	}
}

func TestIDSBoundedState(t *testing.T) {
	eng, net, sw, hosts := star(23, 2)
	client, server := hosts[0], hosts[1]
	ids := NewIDS(sw, [][]byte{[]byte("needle-123")}, false)
	c := simhost.AttachMTP(net, client, core.Config{LocalPort: 9, MSS: 1000})
	simhost.AttachMTP(net, server, core.Config{LocalPort: 7})
	// Many concurrent multi-packet messages: state stays bounded by live
	// messages and drains to zero.
	for i := 0; i < 20; i++ {
		data := make([]byte, 8000)
		c.EP.Send(server.ID(), 7, data, core.SendOptions{})
	}
	eng.Run(20 * time.Millisecond)
	if len(ids.flows) != 0 {
		t.Fatalf("flow states leaked: %d", len(ids.flows))
	}
	if ids.ScannedPkts == 0 {
		t.Fatal("nothing scanned")
	}
}

func TestIDSRejectsBadPatterns(t *testing.T) {
	for _, pats := range [][][]byte{nil, {{}}} {
		func() {
			defer func() { recover() }()
			eng, _, sw, _ := star(24, 2)
			_ = eng
			NewIDS(sw, pats, false)
			t.Fatalf("no panic for %v", pats)
		}()
	}
}
