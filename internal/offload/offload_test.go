package offload

import (
	"bytes"
	"testing"
	"time"

	"mtp/internal/core"
	"mtp/internal/sim"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// star builds clients and servers around one switch with 10 Gbps links.
func star(seed int64, nHosts int) (*sim.Engine, *simnet.Network, *simnet.Switch, []*simnet.Host) {
	eng := sim.NewEngine(seed)
	net := simnet.NewNetwork(eng)
	sw := simnet.NewSwitch(net, nil)
	hosts := make([]*simnet.Host, nHosts)
	for i := range hosts {
		h := simnet.NewHost(net)
		h.SetUplink(net.Connect(sw, simnet.LinkConfig{Rate: 10e9, Delay: us(2), QueueCap: 1024}, "up"))
		sw.AddRoute(h.ID(), net.Connect(h, simnet.LinkConfig{Rate: 10e9, Delay: us(2), QueueCap: 1024}, "down"))
		hosts[i] = h
	}
	return eng, net, sw, hosts
}

// kvsBackend attaches a KVS server endpoint to a host.
func kvsBackend(net *simnet.Network, h *simnet.Host, port uint16) (*simhost.MTPHost, map[string][]byte, *int) {
	store := make(map[string][]byte)
	gets := 0
	var mh *simhost.MTPHost
	mh = simhost.AttachMTP(net, h, core.Config{LocalPort: port, OnMessage: func(m *core.InMessage) {
		op, key, value, ok := DecodeKV(m.Data)
		if !ok {
			return
		}
		switch op {
		case kvPut:
			store[key] = append([]byte(nil), value...)
		case kvGet:
			gets++
			if v, hit := store[key]; hit {
				mh.EP.Send(m.From, m.SrcPort, EncodeResponse(key, v), core.SendOptions{})
			}
		}
	}})
	return mh, store, &gets
}

func TestCacheHitBypassesBackend(t *testing.T) {
	eng, net, sw, hosts := star(1, 2)
	client, server := hosts[0], hosts[1]
	cache := NewCache(sw, 16)

	_, store, gets := kvsBackend(net, server, 7)
	var responses [][]byte
	c := simhost.AttachMTP(net, client, core.Config{LocalPort: 9, OnMessage: func(m *core.InMessage) {
		responses = append(responses, m.Data)
	}})

	// PUT populates backend and cache (write-through).
	c.EP.Send(server.ID(), 7, EncodePut("k1", []byte("v1")), core.SendOptions{})
	eng.Run(time.Millisecond)
	if got := store["k1"]; !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("backend store = %q", got)
	}
	if len(cache.store) != 1 || cache.Puts != 1 {
		t.Fatalf("cache state: len=%d puts=%d", len(cache.store), cache.Puts)
	}

	// GET is answered by the switch: backend sees no GET.
	c.EP.Send(server.ID(), 7, EncodeGet("k1"), core.SendOptions{})
	eng.Run(2 * time.Millisecond)
	if *gets != 0 {
		t.Fatalf("backend served %d GETs, cache should have answered", *gets)
	}
	if cache.Hits != 1 {
		t.Fatalf("cache hits = %d", cache.Hits)
	}
	if len(responses) != 1 {
		t.Fatalf("client got %d responses", len(responses))
	}
	op, key, value, ok := DecodeKV(responses[0])
	if !ok || op != kvRsp || key != "k1" || !bytes.Equal(value, []byte("v1")) {
		t.Fatalf("response = %v %q %q", op, key, value)
	}
	// The client transport must have completed (the cache ACKed the GET).
	if c.EP.Pending() != 0 {
		t.Fatal("client request never acknowledged")
	}
}

func TestCacheMissForwardsAndLearns(t *testing.T) {
	eng, net, sw, hosts := star(2, 2)
	client, server := hosts[0], hosts[1]
	cache := NewCache(sw, 16)
	_, store, gets := kvsBackend(net, server, 7)
	store["cold"] = []byte("backend-value")

	var responses [][]byte
	c := simhost.AttachMTP(net, client, core.Config{LocalPort: 9, OnMessage: func(m *core.InMessage) {
		responses = append(responses, m.Data)
	}})

	c.EP.Send(server.ID(), 7, EncodeGet("cold"), core.SendOptions{})
	eng.Run(2 * time.Millisecond)
	if *gets != 1 || cache.Misses != 1 {
		t.Fatalf("gets=%d misses=%d", *gets, cache.Misses)
	}
	if len(responses) != 1 {
		t.Fatalf("client got %d responses", len(responses))
	}
	// The response crossing the switch populated the cache.
	if len(cache.store) != 1 {
		t.Fatalf("cache did not learn from response: len=%d", len(cache.store))
	}
	// Second GET now hits in-network.
	c.EP.Send(server.ID(), 7, EncodeGet("cold"), core.SendOptions{})
	eng.Run(4 * time.Millisecond)
	if *gets != 1 {
		t.Fatalf("backend served %d GETs after cache fill", *gets)
	}
	if cache.Hits != 1 || len(responses) != 2 {
		t.Fatalf("hits=%d responses=%d", cache.Hits, len(responses))
	}
}

func TestCacheHitLatencyBelowBackendLatency(t *testing.T) {
	// The switch is 2 µs from the client; the backend is 2 µs beyond the
	// switch. A hit must complete in roughly half the round trip.
	eng, net, sw, hosts := star(3, 2)
	client, server := hosts[0], hosts[1]
	NewCache(sw, 16)
	kvsBackend(net, server, 7)

	var missRTT, hitRTT time.Duration
	var sentAt time.Duration
	c := simhost.AttachMTP(net, client, core.Config{LocalPort: 9, OnMessage: func(m *core.InMessage) {
		if missRTT == 0 {
			missRTT = eng.Now() - sentAt
		} else if hitRTT == 0 {
			hitRTT = eng.Now() - sentAt
		}
	}})

	// Seed backend via PUT (also fills cache write-through); then evict by
	// building a fresh cache... simpler: first GET misses (not cached, PUT
	// skipped), second hits via response learning.
	srv, store, _ := kvsBackend(net, server, 8)
	_ = srv
	store["k"] = []byte("v")

	sentAt = eng.Now()
	c.EP.Send(server.ID(), 8, EncodeGet("k"), core.SendOptions{})
	eng.Run(2 * time.Millisecond)
	sentAt = eng.Now()
	c.EP.Send(server.ID(), 8, EncodeGet("k"), core.SendOptions{})
	eng.Run(4 * time.Millisecond)

	if missRTT == 0 || hitRTT == 0 {
		t.Fatalf("rtts: miss=%v hit=%v", missRTT, hitRTT)
	}
	if hitRTT >= missRTT {
		t.Fatalf("cache hit (%v) not faster than backend (%v)", hitRTT, missRTT)
	}
}

func TestL7LBSpreadsAndSteersAwayFromBusy(t *testing.T) {
	eng, net, sw, hosts := star(4, 4)
	client := hosts[0]
	replicas := hosts[1:]
	vip := net.AllocID()

	replicaIDs := []simnet.NodeID{replicas[0].ID(), replicas[1].ID(), replicas[2].ID()}
	lb := NewL7LB(sw, vip, replicaIDs)

	served := make(map[simnet.NodeID]int)
	for _, rh := range replicas {
		rh := rh
		var mh *simhost.MTPHost
		mh = simhost.AttachMTP(net, rh, core.Config{LocalPort: 7, OnMessage: func(m *core.InMessage) {
			served[rh.ID()]++
			_, key, _, _ := DecodeKV(m.Data)
			mh.EP.Send(m.From, m.SrcPort, EncodeResponse(key, []byte("ok")), core.SendOptions{})
		}})
	}
	var responses int
	c := simhost.AttachMTP(net, client, core.Config{LocalPort: 9, OnMessage: func(m *core.InMessage) {
		responses++
	}})

	for i := 0; i < 30; i++ {
		c.EP.Send(vip, 7, EncodeGet("x"), core.SendOptions{})
	}
	eng.Run(20 * time.Millisecond)
	if responses != 30 {
		t.Fatalf("responses = %d", responses)
	}
	for _, id := range replicaIDs {
		if served[id] < 5 {
			t.Fatalf("replica %d underused: %v", id, served)
		}
	}
	if lb.Steered[replicaIDs[0]]+lb.Steered[replicaIDs[1]]+lb.Steered[replicaIDs[2]] != 30 {
		t.Fatalf("steered = %v", lb.Steered)
	}
}

func TestL7LBAvoidsStuckReplica(t *testing.T) {
	eng, net, sw, hosts := star(5, 4)
	client := hosts[0]
	replicas := hosts[1:]
	vip := net.AllocID()
	replicaIDs := []simnet.NodeID{replicas[0].ID(), replicas[1].ID(), replicas[2].ID()}
	lb := NewL7LB(sw, vip, replicaIDs)

	// Replica 0 never responds; 1 and 2 respond promptly.
	for i, rh := range replicas {
		i, rh := i, rh
		var mh *simhost.MTPHost
		mh = simhost.AttachMTP(net, rh, core.Config{LocalPort: 7, OnMessage: func(m *core.InMessage) {
			if i == 0 {
				return // stuck replica
			}
			_, key, _, _ := DecodeKV(m.Data)
			mh.EP.Send(m.From, m.SrcPort, EncodeResponse(key, []byte("ok")), core.SendOptions{})
		}})
	}
	c := simhost.AttachMTP(net, client, core.Config{LocalPort: 9})
	for i := 0; i < 60; i++ {
		i := i
		eng.Schedule(time.Duration(i*100)*time.Microsecond, func() {
			c.EP.Send(vip, 7, EncodeGet("x"), core.SendOptions{})
		})
	}
	eng.Run(30 * time.Millisecond)
	stuck := lb.Steered[replicaIDs[0]]
	healthy := lb.Steered[replicaIDs[1]] + lb.Steered[replicaIDs[2]]
	if stuck > healthy/4 {
		t.Fatalf("stuck replica got %d of %d requests", stuck, stuck+healthy)
	}
}

func TestCompressorEndToEnd(t *testing.T) {
	eng, net, sw, hosts := star(6, 2)
	client, server := hosts[0], hosts[1]
	comp := NewCompressor(sw)

	var got []core.InMessage
	c := simhost.AttachMTP(net, client, core.Config{LocalPort: 9, MSS: 1000})
	simhost.AttachMTP(net, server, core.Config{LocalPort: 7, OnMessage: func(m *core.InMessage) {
		got = append(got, *m)
	}})

	data := make([]byte, 10*1000+777)
	for i := range data {
		data[i] = byte(i)
	}
	c.EP.Send(server.ID(), 7, data, core.SendOptions{})
	eng.Run(20 * time.Millisecond)

	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	want := CompressBytes(data)
	if !bytes.Equal(got[0].Data, want) {
		t.Fatalf("mutated data mismatch: got %d bytes want %d", len(got[0].Data), len(want))
	}
	if comp.Mutated == 0 {
		t.Fatal("compressor idle")
	}
	// Sender completed despite the size change: acks are per packet number.
	if c.EP.Pending() != 0 {
		t.Fatal("sender stuck after mutation")
	}
}

func TestAggregatorSumsRounds(t *testing.T) {
	eng, net, sw, hosts := star(7, 4)
	ps := hosts[0]
	workers := hosts[1:]
	agg := NewAggregator(sw, ps.ID(), 3)

	type rcv struct {
		round uint64
		vec   []int64
	}
	var got []rcv
	simhost.AttachMTP(net, ps, core.Config{LocalPort: 5, OnMessage: func(m *core.InMessage) {
		round, vec, ok := DecodeGradient(m.Data)
		if !ok {
			t.Errorf("bad aggregate payload")
			return
		}
		got = append(got, rcv{round, vec})
	}})

	whosts := make([]*simhost.MTPHost, len(workers))
	for i, wh := range workers {
		whosts[i] = simhost.AttachMTP(net, wh, core.Config{LocalPort: uint16(20 + i)})
	}
	for round := uint64(1); round <= 3; round++ {
		for i, w := range whosts {
			vec := []int64{int64(i + 1), int64(round), -int64(i)}
			w.EP.Send(ps.ID(), 5, EncodeGradient(round, vec), core.SendOptions{})
		}
	}
	eng.Run(20 * time.Millisecond)

	if len(got) != 3 {
		t.Fatalf("aggregates = %d (emitted=%d consumed=%d)", len(got), agg.Emitted, agg.Consumed)
	}
	for _, g := range got {
		// Sum over workers i=0..2 of (i+1, round, -i) = (6, 3*round, -3).
		if g.vec[0] != 6 || g.vec[1] != int64(3*g.round) || g.vec[2] != -3 {
			t.Fatalf("round %d sum = %v", g.round, g.vec)
		}
	}
	// Every worker's transport completed: the switch acked contributions.
	for i, w := range whosts {
		if w.EP.Pending() != 0 {
			t.Fatalf("worker %d stuck", i)
		}
	}
}

func TestKVCodec(t *testing.T) {
	op, k, v, ok := DecodeKV(EncodePut("key", []byte("val")))
	if !ok || op != kvPut || k != "key" || string(v) != "val" {
		t.Fatalf("put decode: %v %q %q %v", op, k, v, ok)
	}
	op, k, v, ok = DecodeKV(EncodeGet("g"))
	if !ok || op != kvGet || k != "g" || len(v) != 0 {
		t.Fatalf("get decode: %v %q %q", op, k, v)
	}
	if !IsResponse(EncodeResponse("k", []byte("x"))) {
		t.Fatal("IsResponse false for response")
	}
	if IsResponse(EncodeGet("k")) {
		t.Fatal("IsResponse true for GET")
	}
	if _, _, _, ok := DecodeKV([]byte{}); ok {
		t.Fatal("empty decoded")
	}
	if _, _, _, ok := DecodeKV([]byte{9, 0, 0}); ok {
		t.Fatal("bad op decoded")
	}
	if _, _, _, ok := DecodeKV([]byte{1, 0, 200}); ok {
		t.Fatal("truncated key decoded")
	}
}

func TestGradientCodec(t *testing.T) {
	r, v, ok := DecodeGradient(EncodeGradient(7, []int64{1, -2, 3}))
	if !ok || r != 7 || len(v) != 3 || v[1] != -2 {
		t.Fatalf("gradient decode: %v %v %v", r, v, ok)
	}
	if _, _, ok := DecodeGradient([]byte{1, 2}); ok {
		t.Fatal("short gradient decoded")
	}
	if _, _, ok := DecodeGradient(make([]byte, 13)); ok {
		t.Fatal("misaligned gradient decoded")
	}
}
