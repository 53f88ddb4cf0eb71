package shard

import (
	"runtime"
	"testing"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/core"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
	"mtp/internal/topo"
)

// arrivalRec is one raw-packet delivery, the unit of cross-mode comparison.
type arrivalRec struct {
	host int
	src  simnet.NodeID
	size int
	at   time.Duration
}

// driveRaw installs recording handlers on every owned host and schedules the
// given flows (n packets each at t=0) from owned sources. Raw packets skip
// the transport so the workload is pure fabric: links, switches, crossings.
func driveRaw(fab *topo.Fabric, owns func(int) bool, flows []rawFlow, record func(arrivalRec)) {
	for i := 0; i < fab.NumHosts(); i++ {
		if !owns(i) {
			continue
		}
		i := i
		fab.Host(i).SetHandler(func(pkt *simnet.Packet) {
			record(arrivalRec{host: i, src: pkt.Src, size: pkt.Size, at: fab.Eng.Now()})
		})
	}
	for _, f := range flows {
		if !owns(f.src) {
			continue
		}
		src, dst, size, flow := fab.Host(f.src), fab.HostID(f.dst), f.size, f.flow
		for k := 0; k < f.n; k++ {
			fab.Eng.Schedule(0, func() {
				pkt := fab.Net.AllocPacket()
				pkt.Dst, pkt.Size, pkt.FlowID = dst, size, flow
				src.Send(pkt)
			})
		}
	}
}

type rawFlow struct {
	src, dst, n, size int
	flow              uint64
}

// mergeByTimeHost merges per-shard arrival streams into one sequence ordered
// by (time, host) — well-defined because a host's downlink serializes its
// deliveries within a timestamp.
func mergeByTimeHost(got [][]arrivalRec) []arrivalRec {
	var merged []arrivalRec
	for _, g := range got {
		merged = append(merged, g...)
	}
	for i := 1; i < len(merged); i++ {
		for j := i; j > 0 && (merged[j].at < merged[j-1].at || (merged[j].at == merged[j-1].at && merged[j].host < merged[j-1].host)); j-- {
			merged[j], merged[j-1] = merged[j-1], merged[j]
		}
	}
	return merged
}

func runClusterRaw(c *Cluster, flows []rawFlow, horizon time.Duration) ([]arrivalRec, RunStats) {
	S := c.NumShards()
	got := make([][]arrivalRec, S)
	for s := 0; s < S; s++ {
		s := s
		fab := c.Shard(s).Fab
		driveRaw(fab, fab.OwnsHost, flows, func(a arrivalRec) { got[s] = append(got[s], a) })
	}
	st := c.Run(horizon)
	return mergeByTimeHost(got), st
}

// crossPodFlows builds a workload that keeps several pods busy at staggered
// densities, so batched rounds actually open multi-window spans while
// crossings keep arriving.
func crossPodFlows(hosts int) []rawFlow {
	last := hosts - 1
	return []rawFlow{
		{0, last, 12, 1500, 21},
		{1, last, 12, 1500, 22},
		{last, 0, 12, 1500, 23},
		{2, hosts / 2, 6, 700, 24},
		{hosts / 2, 2, 6, 700, 25},
		{hosts/2 + 1, 1, 3, 9000, 26},
	}
}

// TestBatchedMatchesUnbatched pins the batching soundness result across
// seeds: the free-floating batched bound (MaxBatch=0) must produce exactly
// the arrival stream of the per-window legacy schedule (MaxBatch=1), which
// in turn is the unsharded stream (TestShardDeliveryMatchesUnsharded). Any
// unsound commit bound shows up here as a reordered or time-shifted
// delivery.
func TestBatchedMatchesUnbatched(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := topo.FatTreeConfig{K: 4, Seed: seed}
		flows := crossPodFlows(16)

		legacy := NewFatTreeCluster(cfg, 4)
		legacy.MaxBatch = 1
		wantArr, wantSt := runClusterRaw(legacy, flows, time.Second)
		if wantSt.Crossings == 0 {
			t.Fatalf("seed %d: no crossings — workload exercises nothing", seed)
		}

		batched := NewFatTreeCluster(cfg, 4)
		gotArr, gotSt := runClusterRaw(batched, flows, time.Second)

		if len(gotArr) != len(wantArr) {
			t.Fatalf("seed %d: batched delivered %d, unbatched %d", seed, len(gotArr), len(wantArr))
		}
		for i := range wantArr {
			if gotArr[i] != wantArr[i] {
				t.Fatalf("seed %d arrival %d: batched %+v, unbatched %+v", seed, i, gotArr[i], wantArr[i])
			}
		}
		// The point of batching: strictly fewer barrier rounds on the same run.
		if gotSt.Rounds >= wantSt.Rounds {
			t.Errorf("seed %d: batched rounds %d not below unbatched %d", seed, gotSt.Rounds, wantSt.Rounds)
		}
	}
}

// TestLeafSpineClusterMatchesUnsharded is the leaf-spine twin of
// TestShardDeliveryMatchesUnsharded: identical arrival streams whether the
// rack-partitioned fabric runs on one engine or a 2- or 4-shard cluster.
func TestLeafSpineClusterMatchesUnsharded(t *testing.T) {
	cfg := topo.LeafSpineConfig{Leaves: 4, Spines: 3, HostsPerLeaf: 4, Seed: 5}
	flows := crossPodFlows(16)

	var want []arrivalRec
	full := topo.NewLeafSpine(cfg)
	driveRaw(full, func(int) bool { return true }, flows, func(a arrivalRec) { want = append(want, a) })
	full.Eng.Run(time.Second)
	if len(want) == 0 {
		t.Fatal("unsharded run delivered nothing")
	}
	want = mergeByTimeHost([][]arrivalRec{want})

	for _, S := range []int{2, 4} {
		c := NewLeafSpineCluster(cfg, S)
		got, st := runClusterRaw(c, flows, time.Second)
		if st.Crossings == 0 {
			t.Fatalf("S=%d: no cross-shard packets", S)
		}
		if len(got) != len(want) {
			t.Fatalf("S=%d: %d arrivals, want %d", S, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("S=%d arrival %d: got %+v, want %+v", S, i, got[i], want[i])
			}
		}
	}
}

// TestLargeFabricDeterminismRace runs a k=48 fat-tree (27648 hosts) on 8
// shards twice and against the single-engine reference, asserting identical
// arrival streams. Its job is to put the full barrier/batching/recycling
// machinery under the race detector at a scale where every code path (cut
// exchange, outbox recycling, in-window tightening) fires; raw packets keep
// the run construction-bound. Skipped in -short mode.
func TestLargeFabricDeterminismRace(t *testing.T) {
	if testing.Short() {
		t.Skip("k=48 construction is seconds-scale; skipping in short mode")
	}
	const k = 48
	hosts := k * k * k / 4
	cfg := topo.FatTreeConfig{K: k, Seed: 9}
	flows := crossPodFlows(hosts)
	horizon := 500 * time.Microsecond

	var want []arrivalRec
	full := topo.NewFatTree(cfg)
	driveRaw(full, func(int) bool { return true }, flows, func(a arrivalRec) { want = append(want, a) })
	full.Eng.Run(horizon)
	if len(want) == 0 {
		t.Fatal("unsharded run delivered nothing")
	}
	want = mergeByTimeHost([][]arrivalRec{want})

	for rep := 0; rep < 2; rep++ {
		c := NewFatTreeCluster(cfg, 8)
		got, st := runClusterRaw(c, flows, horizon)
		if st.Crossings == 0 {
			t.Fatalf("rep %d: no cross-shard packets", rep)
		}
		if len(got) != len(want) {
			t.Fatalf("rep %d: %d arrivals, want %d", rep, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d arrival %d: got %+v, want %+v", rep, i, got[i], want[i])
			}
		}
	}
}

// TestShardSteadyStateAllocs pins the pool-tuning result: once the packet
// free-lists, event arenas, and exchange buffers have warmed up, the sharded
// incast hot path allocates (essentially) nothing. The budget absorbs the
// per-Run goroutine spawns and runtime bookkeeping; a regression to
// per-crossing or per-packet allocation blows past it by orders of
// magnitude.
func TestShardSteadyStateAllocs(t *testing.T) {
	cfg := topo.FatTreeConfig{K: 4, Seed: 2}
	c := NewFatTreeCluster(cfg, 4)
	const sink = 15
	// Closed-loop incast: every delivery at the sink triggers a reply, every
	// reply re-triggers the sender, so traffic (and crossings) never drain.
	for s := 0; s < c.NumShards(); s++ {
		fab := c.Shard(s).Fab
		for i := 0; i < fab.NumHosts(); i++ {
			if !fab.OwnsHost(i) {
				continue
			}
			i := i
			fab := fab
			fab.Host(i).SetHandler(func(pkt *simnet.Packet) {
				reply := fab.Net.AllocPacket()
				reply.Dst, reply.Size, reply.FlowID = pkt.Src, 1500, pkt.FlowID
				fab.Host(i).Send(reply)
			})
			if i != sink {
				fab.Eng.Schedule(0, func() {
					pkt := fab.Net.AllocPacket()
					pkt.Dst, pkt.Size, pkt.FlowID = fab.HostID(sink), 1500, uint64(100+i)
					src := fab.Host(i)
					src.Send(pkt)
				})
			}
		}
	}
	// Warmup grows every pool to steady state.
	st := c.Run(2 * time.Millisecond)
	if st.Crossings == 0 {
		t.Fatal("warmup produced no crossings")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st2 := c.Run(6 * time.Millisecond)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	events := st2.Events - st.Events
	if events < 10000 {
		t.Fatalf("measure window executed only %d events", events)
	}
	// Budget: goroutine spawns, the done channel, and testing/runtime noise.
	// The window executes tens of thousands of events; per-event or
	// per-crossing allocation would cost tens of thousands of mallocs.
	if allocs > 500 {
		t.Errorf("steady-state window: %d mallocs over %d events (want ≤ 500)", allocs, events)
	}
	for s := 0; s < c.NumShards(); s++ {
		live, high, free := c.Shard(s).Fab.Net.PoolStats()
		// Conservation: checked-out plus free equals everything ever pooled,
		// which the high-water mark can never exceed.
		if high > live+free {
			t.Errorf("shard %d: pool high-water %d exceeds live %d + free %d", s, high, live, free)
		}
	}
}

// TestMTPSteadyStateAllocs is DESIGN §6's "endpoint packet processing is
// allocation-free in steady state" as an assertion, under the simulator, for
// both rows of a scale run: a closed-loop incast on a k=4 fat-tree, warmed up,
// may allocate only per-message state, never per packet. For MTP that is one
// OutMessage and its packet table per 256 KB message; for the DCTCP control
// row, wired the way a scale run wires it (baseline.Wiring, one connection per
// message), it is the connection's sender and demux entry. Either is a handful
// of mallocs per thousand events. On one engine that is the whole budget; on
// two shards each MTP crossing also clones its header (the pooled original is
// recycled in the sending shard), which costs at most the struct and one array
// per non-empty list, while a DCTCP segment crosses by moving and gets no
// allowance.
func TestMTPSteadyStateAllocs(t *testing.T) {
	const (
		sink          = 15
		msgSize       = 256 << 10
		perKiloEvent  = 10 // measured ≈2 for MTP, ≈4 for DCTCP: per-message state only
		windowMinimum = 50000
		// plan is each DCTCP sender's message count. Receivers are created
		// before the run, on the shard that owns the sink, so the plan is
		// fixed; the run completes a fraction of it.
		plan = 64
	)
	mtp := func(fab *topo.Fabric) {
		for i := 0; i < fab.NumHosts(); i++ {
			if !fab.OwnsHost(i) {
				continue
			}
			var mh *simhost.MTPHost
			next := func() {
				mh.EP.SendSynthetic(fab.HostID(sink), 1000+sink, msgSize, core.SendOptions{})
			}
			mh = simhost.AttachMTP(fab.Net, fab.Host(i), core.Config{
				LocalPort:     uint16(1000 + i),
				RTO:           time.Millisecond,
				OnMessageSent: func(*core.OutMessage) { next() },
			})
			if i != sink {
				fab.Eng.Schedule(0, next)
			}
		}
	}
	dctcp := func(fab *topo.Fabric) {
		w := baseline.MustRival("dctcp").Wire(fab.Eng, fab, baseline.WireConfig{RTO: time.Millisecond})
		msg := func(src, idx int) baseline.Msg {
			return baseline.Msg{Src: src, Dst: sink, Size: msgSize, ID: uint64(src)<<20 | uint64(idx+1)}
		}
		for i := 0; i < fab.NumHosts(); i++ {
			if i == sink {
				continue
			}
			if fab.OwnsHost(sink) {
				for idx := 0; idx < plan; idx++ {
					w.Expect(msg(i, idx))
				}
			}
			if !fab.OwnsHost(i) {
				continue
			}
			var next func()
			idx := 0
			next = func() {
				if idx == plan {
					t.Errorf("dctcp: host %d ran out of planned messages", i)
					return
				}
				idx++
				w.Start(msg(i, idx-1), func(time.Duration, uint64) { next() })
			}
			fab.Eng.Schedule(0, next)
		}
	}
	rows := []struct {
		name    string
		install func(fab *topo.Fabric)
		// perCrossing is the allowance for what one crossing must copy.
		perCrossing uint64
		// syncPool marks a row whose payloads come from a sync.Pool.
		syncPool bool
	}{
		{"mtp", mtp, 4, false}, // Header.Clone: the struct + up to three lists in use
		{"dctcp", dctcp, 0, true},
	}
	for _, row := range rows {
		for _, S := range []int{1, 2} {
			c := NewFatTreeCluster(topo.FatTreeConfig{K: 4, Seed: 2}, S)
			for s := 0; s < S; s++ {
				row.install(c.Shard(s).Fab)
			}
			warm := c.Run(10 * time.Millisecond)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st := c.Run(30 * time.Millisecond)
			runtime.ReadMemStats(&after)
			allocs := after.Mallocs - before.Mallocs
			events, crossings := st.Events-warm.Events, st.Crossings-warm.Crossings
			if events < windowMinimum {
				t.Fatalf("%s S=%d: measure window executed only %d events", row.name, S, events)
			}
			if S > 1 && crossings == 0 {
				t.Fatalf("%s S=%d: no crossings in the measure window", row.name, S)
			}
			budget := events*perKiloEvent/1000 + crossings*row.perCrossing
			t.Logf("%s S=%d: %d mallocs over %d events and %d crossings (%.1f per 1000 events; budget %d)",
				row.name, S, allocs, events, crossings, 1000*float64(allocs)/float64(events), budget)
			if raceEnabled && row.syncPool {
				t.Logf("%s S=%d: race detector on: budget not checked", row.name, S)
				continue
			}
			if allocs > budget {
				t.Errorf("%s S=%d: steady-state window: %d mallocs over %d events and %d crossings (want ≤ %d)",
					row.name, S, allocs, events, crossings, budget)
			}
		}
	}
}
