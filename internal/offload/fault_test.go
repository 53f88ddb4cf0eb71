package offload

import (
	"bytes"
	"testing"
	"time"

	"mtp/internal/core"
	"mtp/internal/fault"
	"mtp/internal/sim"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
	"mtp/internal/topo"
)

// starLinks is star() but keeps the per-host link handles so fault injection
// can target them.
func starLinks(seed int64, nHosts int) (*sim.Engine, *simnet.Network, *simnet.Switch, []*simnet.Host, []*simnet.Link, []*simnet.Link) {
	eng := sim.NewEngine(seed)
	net := simnet.NewNetwork(eng)
	sw := simnet.NewSwitch(net, nil)
	hosts := make([]*simnet.Host, nHosts)
	ups := make([]*simnet.Link, nHosts)
	downs := make([]*simnet.Link, nHosts)
	for i := range hosts {
		h := simnet.NewHost(net)
		ups[i] = net.Connect(sw, simnet.LinkConfig{Rate: 10e9, Delay: us(2), QueueCap: 1024}, "up")
		downs[i] = net.Connect(h, simnet.LinkConfig{Rate: 10e9, Delay: us(2), QueueCap: 1024}, "down")
		h.SetUplink(ups[i])
		sw.AddRoute(h.ID(), downs[i])
		hosts[i] = h
	}
	return eng, net, sw, hosts, ups, downs
}

// gradVec is worker w's deterministic contribution to a round.
func gradVec(w int, round uint64, dim int) []int64 {
	v := make([]int64, dim)
	for i := range v {
		v[i] = int64(round)*100 + int64(w)*10 + int64(i)
	}
	return v
}

func wantSum(workers int, round uint64, dim int) []int64 {
	want := make([]int64, dim)
	for w := 0; w < workers; w++ {
		for i, v := range gradVec(w, round, dim) {
			want[i] += v
		}
	}
	return want
}

// mlWorker runs the closed-loop training client: send a round's gradient,
// wait for the parameter server's result broadcast (the end-to-end
// confirmation that releases delegated state), then start the next round.
type mlWorker struct {
	host    *simhost.MTPHost
	pending map[uint64]*core.OutMessage
}

// stagger > 0 makes the worker a straggler: each round's contribution is
// delayed by that much after the previous round's result arrives.
func attachWorker(net *simnet.Network, h *simnet.Host, idx int, psID simnet.NodeID, psPort uint16, nRounds, dim int, stagger time.Duration, cfg core.Config) *mlWorker {
	w := &mlWorker{pending: make(map[uint64]*core.OutMessage)}
	send := func(round uint64) {
		if round > uint64(nRounds) {
			return
		}
		net.Engine().Schedule(stagger, func() {
			w.pending[round] = w.host.EP.Send(psID, psPort, EncodeGradient(round, gradVec(idx, round, dim)), core.SendOptions{})
		})
	}
	cfg.LocalPort = 1
	cfg.OnMessage = func(m *core.InMessage) {
		round, _, ok := DecodeResult(m.Data)
		if !ok {
			return
		}
		if p := w.pending[round]; p != nil {
			w.host.EP.Release(p)
			delete(w.pending, round)
		}
		send(round + 1)
	}
	w.host = simhost.AttachMTP(net, h, cfg)
	net.Engine().Schedule(0, func() { send(1) })
	return w
}

// workerStagger delays only the last worker, making it the straggler.
func workerStagger(idx, nWorkers int, d time.Duration) time.Duration {
	if idx == nWorkers-1 {
		return d
	}
	return 0
}

// attachPS runs the fallback-capable parameter server: ingest whatever
// arrives (in-network aggregates or raw retransmissions), verify each
// completed round's sum, broadcast the result.
func attachPS(t *testing.T, net *simnet.Network, h *simnet.Host, port uint16, workerIDs []simnet.NodeID, dim int) (*PSAggregator, *int) {
	psagg := NewPSAggregator(len(workerIDs))
	sumErrs := 0
	var psh *simhost.MTPHost
	psagg.OnRound = func(round uint64, sum []int64) {
		want := wantSum(len(workerIDs), round, dim)
		for i := range sum {
			if sum[i] != want[i] {
				sumErrs++
				t.Errorf("round %d sum[%d] = %d, want %d", round, i, sum[i], want[i])
				break
			}
		}
		payload := EncodeResult(round, sum)
		for _, wid := range workerIDs {
			psh.EP.Send(wid, 1, append([]byte(nil), payload...), core.SendOptions{})
		}
	}
	psh = simhost.AttachMTP(net, h, core.Config{LocalPort: port, OnMessage: func(m *core.InMessage) {
		from, _ := m.From.(simnet.NodeID)
		psagg.Ingest(from, m.Data)
	}})
	return psagg, &sumErrs
}

// TestAggregatorPoisonFreedRounds is the regression test for the aggregator
// retaining a pooled *simnet.Packet across interpose returns: with poison
// mode on, any read of a released packet's header shows up as garbage
// (wrong source, wrong ports) and the sums or transport completions break.
func TestAggregatorPoisonFreedRounds(t *testing.T) {
	simnet.SetPoisonFreed(true)
	defer simnet.SetPoisonFreed(false)

	eng, net, sw, hosts, _, _ := starLinks(11, 4)
	ps := hosts[0]
	workers := hosts[1:]
	agg := NewAggregator(sw, ps.ID(), len(workers))

	var got []uint64
	simhost.AttachMTP(net, ps, core.Config{LocalPort: 5, OnMessage: func(m *core.InMessage) {
		round, vec, ok := DecodeGradient(m.Data)
		if !ok {
			t.Errorf("bad aggregate payload")
			return
		}
		want := wantSum(3, round, len(vec))
		for i := range vec {
			if vec[i] != want[i] {
				t.Errorf("round %d sum = %v, want %v", round, vec, want)
				break
			}
		}
		got = append(got, round)
	}})
	whosts := make([]*simhost.MTPHost, len(workers))
	for i, wh := range workers {
		whosts[i] = simhost.AttachMTP(net, wh, core.Config{LocalPort: uint16(20 + i)})
	}
	for round := uint64(1); round <= 5; round++ {
		for i, w := range whosts {
			w.EP.Send(ps.ID(), 5, EncodeGradient(round, gradVec(i, round, 4)), core.SendOptions{})
		}
	}
	eng.Run(20 * time.Millisecond)

	if len(got) != 5 {
		t.Fatalf("aggregates = %d (emitted=%d consumed=%d)", len(got), agg.Emitted, agg.Consumed)
	}
	for i, w := range whosts {
		if w.EP.Pending() != 0 {
			t.Fatalf("worker %d transport never completed (poisoned header fields?)", i)
		}
	}
}

func TestAggregateAndResultCodecsAreDisjoint(t *testing.T) {
	workers := []simnet.NodeID{3, 7, 12}
	vec := []int64{-5, 0, 9000000001, 42}

	round, w2, v2, ok := DecodeAggregate(EncodeAggregate(77, workers, vec))
	if !ok || round != 77 {
		t.Fatalf("aggregate roundtrip: ok=%v round=%d", ok, round)
	}
	if len(w2) != len(workers) || w2[0] != 3 || w2[1] != 7 || w2[2] != 12 {
		t.Fatalf("workers roundtrip = %v", w2)
	}
	for i := range vec {
		if v2[i] != vec[i] {
			t.Fatalf("vec roundtrip = %v", v2)
		}
	}
	r3, s3, ok := DecodeResult(EncodeResult(9, vec))
	if !ok || r3 != 9 || len(s3) != len(vec) || s3[2] != vec[2] {
		t.Fatalf("result roundtrip: %v %d %v", ok, r3, s3)
	}

	// Structural disjointness: none of the three payload kinds may parse as
	// another — a host-side fallback dispatches on this.
	for nWorkers := 1; nWorkers <= len(workers); nWorkers++ {
		a := EncodeAggregate(1, workers[:nWorkers], vec)
		if _, _, ok := DecodeGradient(a); ok {
			t.Fatalf("aggregate (%d workers) parses as raw gradient", nWorkers)
		}
		if _, _, ok := DecodeResult(a); ok {
			t.Fatalf("aggregate (%d workers) parses as result", nWorkers)
		}
	}
	g := EncodeGradient(1, vec)
	if _, _, _, ok := DecodeAggregate(g); ok {
		t.Fatal("gradient parses as aggregate")
	}
	if _, _, ok := DecodeResult(g); ok {
		t.Fatal("gradient parses as result")
	}
	res := EncodeResult(1, vec)
	if _, _, ok := DecodeGradient(res); ok {
		t.Fatal("result parses as gradient")
	}
	if _, _, _, ok := DecodeAggregate(res); ok {
		t.Fatal("result parses as aggregate")
	}
}

func TestPSAggregatorSubtractsRawOverlap(t *testing.T) {
	ps := NewPSAggregator(3)
	var done []uint64
	var sums [][]int64
	ps.OnRound = func(round uint64, sum []int64) {
		done = append(done, round)
		sums = append(sums, append([]int64(nil), sum...))
	}
	// Worker 1's raw contribution arrives first (bypass retransmission),
	// then the device's aggregate for {1, 2}: the raw copy is subtractable,
	// so the aggregate must count worker 2 without double-counting worker 1.
	ps.Ingest(1, EncodeGradient(5, []int64{10, 20}))
	agg := []int64{10 + 100, 20 + 200} // workers 1 and 2 summed in-network
	ps.Ingest(0, EncodeAggregate(5, []simnet.NodeID{1, 2}, agg))
	ps.Ingest(3, EncodeGradient(5, []int64{1000, 2000}))

	if len(done) != 1 || done[0] != 5 {
		t.Fatalf("completed rounds = %v", done)
	}
	if sums[0][0] != 10+100+1000 || sums[0][1] != 20+200+2000 {
		t.Fatalf("sum = %v (worker 1 double-counted?)", sums[0])
	}
	if ps.OverlapsDropped != 0 || ps.DupRaw != 0 {
		t.Fatalf("stats: overlaps=%d dupraw=%d", ps.OverlapsDropped, ps.DupRaw)
	}
}

func TestPSAggregatorRejectsUnsubtractableOverlap(t *testing.T) {
	ps := NewPSAggregator(3)
	var sums [][]int64
	ps.OnRound = func(_ uint64, sum []int64) { sums = append(sums, append([]int64(nil), sum...)) }

	// Two partial aggregates overlap on worker 2, which was counted via the
	// first aggregate — no raw copy exists to subtract, so the second
	// aggregate is rejected outright.
	ps.Ingest(0, EncodeAggregate(1, []simnet.NodeID{1, 2}, []int64{110, 220}))
	ps.Ingest(0, EncodeAggregate(1, []simnet.NodeID{2, 3}, []int64{1100, 2200}))
	if ps.OverlapsDropped != 1 {
		t.Fatalf("OverlapsDropped = %d", ps.OverlapsDropped)
	}
	if len(sums) != 0 {
		t.Fatal("round completed from a rejected aggregate")
	}
	// Liveness: worker 3's raw bypass retransmission completes the round.
	ps.Ingest(3, EncodeGradient(1, []int64{1000, 2000}))
	if len(sums) != 1 || sums[0][0] != 110+1000 || sums[0][1] != 220+2000 {
		t.Fatalf("sums = %v", sums)
	}
}

func TestPSAggregatorDropsDuplicates(t *testing.T) {
	ps := NewPSAggregator(2)
	completed := 0
	ps.OnRound = func(uint64, []int64) { completed++ }

	ps.Ingest(1, EncodeGradient(1, []int64{5}))
	ps.Ingest(1, EncodeGradient(1, []int64{5})) // duplicate raw
	if ps.DupRaw != 1 {
		t.Fatalf("DupRaw = %d", ps.DupRaw)
	}
	// An aggregate that brings nothing new is a pure duplicate.
	ps.Ingest(0, EncodeAggregate(1, []simnet.NodeID{1}, []int64{5}))
	if completed != 0 {
		t.Fatal("round completed early")
	}
	ps.Ingest(2, EncodeGradient(1, []int64{7}))
	if completed != 1 {
		t.Fatalf("completed = %d", completed)
	}
	// Everything after completion is late and dropped.
	ps.Ingest(1, EncodeGradient(1, []int64{5}))
	ps.Ingest(0, EncodeAggregate(1, []simnet.NodeID{1, 2}, []int64{12}))
	if completed != 1 || ps.Pending() != 0 {
		t.Fatalf("late traffic re-opened the round: completed=%d pending=%d", completed, ps.Pending())
	}
}

// TestAggregatorExactlyOnceUnderLossDupCrash drives the full delegated-ACK +
// fallback stack through packet corruption (loss), duplication, and a
// mid-run aggregator crash, across several seeds. Every round must complete
// with the exact sum — no contribution lost, none double-counted.
func TestAggregatorExactlyOnceUnderLossDupCrash(t *testing.T) {
	const (
		nWorkers = 3
		nRounds  = 25
		dim      = 4
	)
	for seed := int64(1); seed <= 4; seed++ {
		eng, net, sw, hosts, ups, downs := starLinks(seed, nWorkers+1)
		ps := hosts[nWorkers]
		agg := NewAggregator(sw, ps.ID(), nWorkers)
		agg.EmitContributors = true
		agg.SetRoundTimeout(2 * time.Millisecond)

		workerIDs := make([]simnet.NodeID, nWorkers)
		for i := 0; i < nWorkers; i++ {
			workerIDs[i] = hosts[i].ID()
		}
		psagg, sumErrs := attachPS(t, net, ps, 5, workerIDs, dim)

		wcfg := core.Config{RTO: 400 * time.Microsecond, MinRTO: 100 * time.Microsecond, MaxRTO: 4 * time.Millisecond,
			DelegateTimeout: 1500 * time.Microsecond}
		for i := 0; i < nWorkers; i++ {
			attachWorker(net, hosts[i], i, ps.ID(), 5, nRounds, dim,
				workerStagger(i, nWorkers, 150*time.Microsecond), wcfg)
		}

		inj := fault.NewInjector(eng, seed)
		for i := 0; i < nWorkers; i++ {
			inj.Corrupt(ups[i], 0.05, 0, 0)
			inj.Duplicate(ups[i], 0.10, 0, 0)
			inj.Corrupt(downs[i], 0.03, 0, 0)
		}
		inj.CrashSwitch(sw, 5*time.Millisecond, 2*time.Millisecond)

		eng.Run(400 * time.Millisecond)

		if psagg.RoundsCompleted != nRounds {
			t.Fatalf("seed %d: completed %d/%d rounds (pending=%d, agg resets=%d, overlaps=%d)",
				seed, psagg.RoundsCompleted, nRounds, psagg.Pending(), agg.Resets, psagg.OverlapsDropped)
		}
		if *sumErrs != 0 {
			t.Fatalf("seed %d: %d sum errors", seed, *sumErrs)
		}
		if agg.Resets != 1 {
			t.Fatalf("seed %d: aggregator resets = %d", seed, agg.Resets)
		}
	}
}

// TestSpineCrashMidRoundRecovers places the aggregator on the single spine
// of a leaf-spine fabric and crashes it mid-training: delegated-but-lost
// contributions must revert to bypass retransmissions once the spine
// forwards again, and every round completes with the exact sum.
func TestSpineCrashMidRoundRecovers(t *testing.T) {
	const (
		nWorkers = 2
		nRounds  = 20
		dim      = 3
	)
	f := topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: 2, Spines: 1, HostsPerLeaf: 2, Seed: 3,
	})
	// Workers under leaf 0; the parameter server under leaf 1, so every
	// contribution crosses the spine.
	ps := f.Host(2)
	spine := f.Switches(topo.TierSpine)[0]
	agg := NewAggregator(spine, ps.ID(), nWorkers)
	agg.EmitContributors = true
	agg.SetRoundTimeout(2 * time.Millisecond)

	workerIDs := []simnet.NodeID{f.Host(0).ID(), f.Host(1).ID()}
	psagg, sumErrs := attachPS(t, f.Net, ps, 5, workerIDs, dim)
	wcfg := core.Config{RTO: 500 * time.Microsecond, MinRTO: 125 * time.Microsecond, MaxRTO: 8 * time.Millisecond,
		DelegateTimeout: 1500 * time.Microsecond}
	for i := 0; i < nWorkers; i++ {
		// Worker 1 straggles each round, so worker 0's contribution sits
		// delegated-but-unconfirmed at the spine when the crash hits.
		attachWorker(f.Net, f.Host(i), i, ps.ID(), 5, nRounds, dim,
			workerStagger(i, nWorkers, 500*time.Microsecond), wcfg)
	}

	// The closed loop turns rounds over quickly, so crash early enough to
	// land mid-round, inside worker 1's straggle window.
	inj := fault.NewInjector(f.Eng, 3)
	inj.CrashSwitch(spine, 300*time.Microsecond, 5*time.Millisecond)

	f.Eng.Run(300 * time.Millisecond)

	if psagg.RoundsCompleted != nRounds || *sumErrs != 0 {
		t.Fatalf("completed %d/%d rounds, %d sum errors (pending=%d, raw=%d, aggs=%d)",
			psagg.RoundsCompleted, nRounds, *sumErrs, psagg.Pending(), psagg.RawContribs, psagg.Aggregates)
	}
	if agg.Resets != 1 {
		t.Fatalf("spine crash did not reset the aggregator (resets=%d)", agg.Resets)
	}
	if psagg.RawContribs == 0 {
		t.Fatal("no raw fallback contributions — the crash recovery path never exercised")
	}
}

// TestCacheCrashServesFromOriginNoStaleRead checks the cache's fault model:
// a crash wipes the store, GETs fall through to the backend (origin
// serving), and a PUT followed by GETs never yields a stale value — before
// or after the crash.
func TestCacheCrashServesFromOriginNoStaleRead(t *testing.T) {
	eng, net, sw, hosts, _, _ := starLinks(21, 2)
	client, server := hosts[0], hosts[1]
	cache := NewCache(sw, 16)
	_, store, gets := kvsBackend(net, server, 7)

	var responses [][]byte
	c := simhost.AttachMTP(net, client, core.Config{LocalPort: 9, OnMessage: func(m *core.InMessage) {
		_, _, value, _ := DecodeKV(m.Data)
		responses = append(responses, append([]byte(nil), value...))
	}})

	c.EP.Send(server.ID(), 7, EncodePut("k", []byte("v1")), core.SendOptions{})
	eng.Run(time.Millisecond)
	c.EP.Send(server.ID(), 7, EncodeGet("k"), core.SendOptions{})
	eng.Run(2 * time.Millisecond)
	if cache.Hits != 1 || len(responses) != 1 || !bytes.Equal(responses[0], []byte("v1")) {
		t.Fatalf("pre-crash hit: hits=%d responses=%v", cache.Hits, responses)
	}

	// Crash: the interposer's store is wiped with the forwarding state.
	sw.SetDown(true)
	sw.SetDown(false)
	if cache.Resets != 1 || len(cache.store) != 0 {
		t.Fatalf("crash did not reset the cache: resets=%d len=%d", cache.Resets, len(cache.store))
	}

	// Origin serving: the GET misses and the backend answers — fresh value,
	// not a stale resurrected one.
	c.EP.Send(server.ID(), 7, EncodeGet("k"), core.SendOptions{})
	eng.Run(5 * time.Millisecond)
	if *gets != 1 {
		t.Fatalf("backend GETs = %d, want origin to serve after crash", *gets)
	}
	if len(responses) != 2 || !bytes.Equal(responses[1], []byte("v1")) {
		t.Fatalf("post-crash responses = %q", responses)
	}
	if got := store["k"]; !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("backend store = %q", got)
	}
	// The read-through refilled the cache, so the next GET hits again.
	c.EP.Send(server.ID(), 7, EncodeGet("k"), core.SendOptions{})
	eng.Run(8 * time.Millisecond)
	if cache.Hits != 2 || *gets != 1 {
		t.Fatalf("read-through refill: hits=%d backend gets=%d", cache.Hits, *gets)
	}
}

// TestCacheNoStaleReadUnderFaults runs a closed-loop PUT/GET sequence with
// corruption, duplication, and a mid-run cache crash: every GET response
// must carry the latest completed PUT's value.
func TestCacheNoStaleReadUnderFaults(t *testing.T) {
	const nOps = 15
	eng, net, sw, hosts, ups, downs := starLinks(31, 2)
	client, server := hosts[0], hosts[1]
	cache := NewCache(sw, 16)
	kvsBackend(net, server, 7)

	val := func(i int) []byte { return []byte{byte('A' + i)} }
	i := 0
	stale := 0
	var c *simhost.MTPHost
	var pendingGet *core.OutMessage
	doPut := func() {
		if i < nOps {
			c.EP.Send(server.ID(), 7, EncodePut("k", val(i)), core.SendOptions{})
		}
	}
	// DelegateTimeout matters here: a cache-hit ACK is provisional, so if
	// the device's response is corrupted in flight the GET reverts to a
	// bypass retransmission that the backend answers reliably.
	c = simhost.AttachMTP(net, client, core.Config{
		LocalPort: 9, RTO: 400 * time.Microsecond, MinRTO: 100 * time.Microsecond, MaxRTO: 4 * time.Millisecond,
		DelegateTimeout: 1200 * time.Microsecond,
		OnMessageSent: func(m *core.OutMessage) {
			// PUT completed end to end: now read it back.
			op, _, _, ok := DecodeKV(m.Data())
			if ok && op == kvPut {
				pendingGet = c.EP.Send(server.ID(), 7, EncodeGet("k"), core.SendOptions{})
			}
		},
		OnMessage: func(m *core.InMessage) {
			_, _, value, ok := DecodeKV(m.Data)
			if !ok || pendingGet == nil {
				return // duplicate response after the read already completed
			}
			c.EP.Release(pendingGet)
			pendingGet = nil
			if !bytes.Equal(value, val(i)) {
				stale++
				t.Errorf("op %d: read %q, want %q", i, value, val(i))
			}
			i++
			doPut()
		},
	})

	inj := fault.NewInjector(eng, 31)
	inj.Corrupt(ups[0], 0.05, 0, 0)
	inj.Duplicate(ups[0], 0.10, 0, 0)
	inj.Corrupt(downs[0], 0.05, 0, 0)
	inj.CrashSwitch(sw, 2*time.Millisecond, 500*time.Microsecond)

	eng.Schedule(0, doPut)
	eng.Run(200 * time.Millisecond)

	if i != nOps || stale != 0 {
		t.Fatalf("completed %d/%d ops, %d stale reads (cache resets=%d)", i, nOps, stale, cache.Resets)
	}
}
