package mtp

// The root benchmarks regenerate every table and figure of the paper's
// evaluation at full length and report the headline numbers as benchmark
// metrics, so `go test -bench=. -benchmem` reproduces the whole evaluation.
// Shapes vs the paper are recorded in EXPERIMENTS.md.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mtp/internal/exp"
	"mtp/internal/sim"
	"mtp/internal/wire"
)

// BenchmarkTable1 runs the full feature-matrix probe suite.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.RunTable1()
		pass := 0
		for _, row := range r.Rows {
			for _, c := range row.Cells {
				if c.Pass {
					pass++
				}
			}
		}
		b.ReportMetric(float64(pass), "features-pass")
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkFig1 regenerates the quantified Figure 1 scenario (cache + L7 LB
// ablation under Zipf load).
func BenchmarkFig1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig1(exp.Fig1Config{})
		b.ReportMetric(r.Rows[0].P99us, "single-p99us")
		b.ReportMetric(r.Rows[2].P99us, "cache+lb-p99us")
		b.ReportMetric(r.Rows[2].HitRate*100, "hit-%")
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkFig2 regenerates the termination-proxy trade-off.
func BenchmarkFig2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig2(exp.Fig2Config{Duration: 5 * time.Millisecond})
		b.ReportMetric(float64(r.Rows[0].PeakOccupancy)/1e6, "unlimited-peak-MB")
		b.ReportMetric(r.Rows[1].ClientGbps, "limited-client-Gbps")
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkFig3 regenerates the one-message-per-flow comparison.
func BenchmarkFig3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig3(exp.Fig3Config{Duration: 10 * time.Millisecond, Outstanding: 1})
		b.ReportMetric(r.Rows[0].MeanGbps, "tcp-Gbps")
		b.ReportMetric(r.Rows[1].MeanGbps, "mtp-Gbps")
		b.ReportMetric(r.Rows[0].CoV, "tcp-CoV")
		b.ReportMetric(r.Rows[1].CoV, "mtp-CoV")
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkFig5 regenerates the multipath congestion-control comparison
// (the paper's headline: MTP converges instantly after each path flip).
func BenchmarkFig5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig5(exp.Fig5Config{Duration: 20 * time.Millisecond})
		b.ReportMetric(r.DCTCP.MeanGbps, "dctcp-Gbps")
		b.ReportMetric(r.MTP.MeanGbps, "mtp-Gbps")
		b.ReportMetric(r.Improvement*100, "improvement-%")
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkFig5AblationSinglePathlet runs MTP with the whole network as one
// pathlet — DESIGN.md ablation 1: the advantage must disappear.
func BenchmarkFig5AblationSinglePathlet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		full := exp.RunFig5(exp.Fig5Config{Duration: 10 * time.Millisecond})
		abl := exp.RunFig5(exp.Fig5Config{Duration: 10 * time.Millisecond, SinglePathlet: true})
		b.ReportMetric(full.MTP.MeanGbps, "per-pathlet-Gbps")
		b.ReportMetric(abl.MTP.MeanGbps, "single-pathlet-Gbps")
	}
}

// BenchmarkFig5CCSweep runs the Figure 5 scenario with each congestion
// control algorithm on MTP's pathlets — the multi-algorithm property means
// the transport does not care which controller a pathlet runs.
func BenchmarkFig5CCSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range exp.RunFig5CCSweep(1, nil, 10*time.Millisecond, 1) {
			b.ReportMetric(p.MTPGbps, string(p.CC)+"-Gbps")
		}
	}
}

// BenchmarkFig6 regenerates the load-balancer comparison.
func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig6(exp.Fig6Config{Messages: 400, MaxMsgSize: 32 << 20})
		for _, row := range r.Rows {
			b.ReportMetric(row.P99us, row.Policy+"-p99us")
		}
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkFig7 regenerates the per-entity isolation comparison.
func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig7(exp.Fig7Config{Duration: 20 * time.Millisecond})
		b.ReportMetric(r.Rows[0].Ratio(), "shared-ratio")
		b.ReportMetric(r.Rows[1].Ratio(), "separate-ratio")
		b.ReportMetric(r.Rows[2].Ratio(), "mtp-ratio")
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkScaleIncast runs the at-scale incast on a declarative leaf-spine
// (internal/topo): 16 senders converge on one host under MTP's message-aware
// LB vs DCTCP over ECMP. Headline metrics are both systems' p99 FCT.
func BenchmarkScaleIncast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.RunScale(exp.ScaleConfig{
			Leaves: 4, Spines: 2, HostsPerLeaf: 8,
			Pattern: "incast", Incast: 16, MsgSize: 256 << 10, Messages: 2,
		})
		b.ReportMetric(r.Rows[0].P99us, "mtp-p99us")
		b.ReportMetric(r.Rows[1].P99us, "dctcp-p99us")
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkShardedIncast runs the fat-tree incast twice — once on a single
// engine, once split across a 4-shard cluster (internal/shard) — and reports
// each run's aggregate event throughput plus the wall-clock speedup. The
// experiment results are bit-identical between the two (the determinism
// regression test enforces it); this benchmark tracks what the sharding buys.
func BenchmarkShardedIncast(b *testing.B) {
	cfg := exp.ScaleConfig{
		Topo: "fattree", K: 8,
		Pattern: "incast", Incast: 32, MsgSize: 256 << 10, Messages: 2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		solo := cfg
		solo.Shards = 1
		rs := exp.RunScale(solo)
		sharded := cfg
		sharded.Shards = 4
		rp := exp.RunScale(sharded)
		for ri, row := range rp.Rows {
			name := "mtp"
			if ri == 1 {
				name = "dctcp"
			}
			b.ReportMetric(row.EventsPerSec()/1e6, name+"-Mev/s-4shard")
			b.ReportMetric(rs.Rows[ri].EventsPerSec()/1e6, name+"-Mev/s-1shard")
			if row.Wall > 0 {
				b.ReportMetric(float64(rs.Rows[ri].Wall)/float64(row.Wall), name+"-speedup")
			}
		}
		if i == 0 {
			b.Log("\n" + rp.String() + rp.PerfString())
		}
	}
}

// BenchmarkShardedKSweep is the perf trajectory for the big-fabric push: the
// k=16 and k=32 incasts on an 8-shard cluster with a 50ms horizon, reporting
// event throughput, the single-engine comparison, and the live heap. A
// working measurement only: the recorded simulator numbers are bench/'s
// sim.mev_per_s and shard.speedup_2 (k=8, what fits its time budget).
func BenchmarkShardedKSweep(b *testing.B) {
	for _, k := range []int{16, 32} {
		k := k
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			cfg := exp.ScaleConfig{
				Topo: "fattree", K: k,
				Pattern: "incast", Incast: 32, MsgSize: 256 << 10, Messages: 2,
				Timeout: 50 * time.Millisecond,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sharded := cfg
				sharded.Shards = 8
				rp := exp.RunScale(sharded)
				solo := cfg
				solo.Shards = 1
				rs := exp.RunScale(solo)
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				for ri, row := range rp.Rows {
					name := "mtp"
					if ri == 1 {
						name = "dctcp"
					}
					b.ReportMetric(row.EventsPerSec()/1e6, name+"-Mev/s-8shard")
					b.ReportMetric(rs.Rows[ri].EventsPerSec()/1e6, name+"-Mev/s-1shard")
					if row.Wall > 0 {
						b.ReportMetric(float64(rs.Rows[ri].Wall)/float64(row.Wall), name+"-speedup")
					}
				}
				b.ReportMetric(float64(rp.Hosts), "hosts")
				b.ReportMetric(float64(rp.Rows[0].Shards), "shards")
				b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heap-MB")
				if i == 0 {
					b.Log("\n" + rp.String() + rp.PerfString())
				}
			}
		})
	}
}

// BenchmarkExtensions runs the Section 4 design-point probes: pathlet
// exclusion, multi-algorithm CC, priority scheduling, and NDP-style
// trimming.
func BenchmarkExtensions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		excl := exp.RunExclusion(10 * time.Millisecond)
		multi := exp.RunMultiAlgo(10 * time.Millisecond)
		prio := exp.RunPriority(10 * time.Millisecond)
		trim := exp.RunTrim()
		b.ReportMetric(excl.WithGbps, "exclusion-Gbps")
		b.ReportMetric(multi.GoodputGbps, "multialgo-Gbps")
		b.ReportMetric(prio.PriorityP99us, "prio-p99us")
		b.ReportMetric(trim.TrimFCTus, "trim-fct-us")
		if i == 0 {
			b.Log("\n" + excl.String() + multi.String() + prio.String() + trim.String())
		}
	}
}

// BenchmarkNodeThroughputMem measures the real (non-simulated) node pushing
// messages through the in-memory network: protocol engine + wire codec cost.
func BenchmarkNodeThroughputMem(b *testing.B) {
	mn := NewMemNetwork(1)
	pa, _ := mn.Listen("a")
	pb, _ := mn.Listen("b")
	na, err := NewNode(pa, Config{Port: 1, MSS: 1200})
	if err != nil {
		b.Fatal(err)
	}
	defer na.Close()
	nb, err := NewNode(pb, Config{Port: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer nb.Close()

	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	stuck := time.NewTimer(30 * time.Second)
	defer stuck.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := na.Send("b", 2, payload)
		if err != nil {
			b.Fatal(err)
		}
		select {
		case <-out.Done():
		case <-stuck.C:
			b.Fatal("message stuck")
		}
	}
}

// BenchmarkNodeSmallMessagesMem measures small-message rate through the full
// stack.
func BenchmarkNodeSmallMessagesMem(b *testing.B) {
	mn := NewMemNetwork(1)
	pa, _ := mn.Listen("a")
	pb, _ := mn.Listen("b")
	na, err := NewNode(pa, Config{Port: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer na.Close()
	nb, err := NewNode(pb, Config{Port: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer nb.Close()

	payload := []byte("a small rpc request payload")
	b.ReportAllocs()
	stuck := time.NewTimer(30 * time.Second)
	defer stuck.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := na.Send("b", 2, payload)
		if err != nil {
			b.Fatal(err)
		}
		select {
		case <-out.Done():
		case <-stuck.C:
			b.Fatal("message stuck")
		}
	}
}

// BenchmarkEngineSchedule measures the discrete-event engine's steady-state
// schedule/fire cycle. The arena and free-list make it allocation-free.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := sim.NewEngine(1)
	fn := func() {}
	// Warm the arena so steady state (not first-touch growth) is measured.
	for i := 0; i < 64; i++ {
		eng.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	eng.RunAll(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(time.Microsecond, fn)
		eng.Schedule(3*time.Microsecond, fn)
		eng.Schedule(2*time.Microsecond, fn)
		eng.RunAll(1 << 20)
	}
}

// BenchmarkWireEncodeDecode measures one header round trip through the wire
// codec — encode into a reused buffer, decode into a reused header — the
// per-packet cost of the real-socket path. Zero allocations.
func BenchmarkWireEncodeDecode(b *testing.B) {
	path := wire.PathTC{PathID: 7, TC: 2}
	h := wire.Header{
		Type:      wire.TypeData,
		SrcPort:   1,
		DstPort:   2,
		MsgID:     99,
		MsgBytes:  3000,
		MsgPkts:   3,
		PktNum:    1,
		PktOffset: 1460,
		PktLen:    1460,
		PathFeedback: []wire.Feedback{
			wire.ECNFeedback(path, true),
			wire.RateFeedback(path, 12e9),
		},
	}
	buf, err := h.Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	var dec wire.Header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = h.Encode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeInto(&dec, buf); err != nil {
			b.Fatal(err)
		}
	}
}
