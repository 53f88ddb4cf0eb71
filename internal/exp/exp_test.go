package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The experiment tests assert the paper's qualitative shapes with shortened
// durations; TestGolden pins the full-length runs byte for byte.

func TestFig1Ablation(t *testing.T) {
	r := RunFig1(Fig1Config{Requests: 200})
	single, lb, cache := r.Rows[0], r.Rows[1], r.Rows[2]
	for _, row := range r.Rows {
		if row.Completed != fig1Clients*200 {
			t.Fatalf("%s completed %d", row.System, row.Completed)
		}
	}
	// The overloaded single backend has a far worse tail than the
	// load-balanced one.
	if lb.P99us*5 > single.P99us {
		t.Fatalf("LB p99 %.0f not well below single-backend %.0f", lb.P99us, single.P99us)
	}
	// The cache serves the majority of the Zipf traffic in-network and
	// offloads the backend proportionally.
	if cache.HitRate < 0.5 {
		t.Fatalf("hit rate %.2f, want > 0.5 for Zipf(1.25)", cache.HitRate)
	}
	if cache.BackendGets*2 > lb.BackendGets {
		t.Fatalf("backend load %d not halved by cache (vs %d)", cache.BackendGets, lb.BackendGets)
	}
	if cache.P50us >= lb.P50us {
		t.Fatalf("cache p50 %.0f not below LB-only %.0f", cache.P50us, lb.P50us)
	}
	if !strings.Contains(r.String(), "Figure 1") {
		t.Fatal("missing render")
	}
}

func TestFig2Shapes(t *testing.T) {
	r := RunFig2(Fig2Config{Duration: 2 * time.Millisecond})
	unl, lim := r.Rows[0], r.Rows[1]

	// Unlimited window: buffer grows with time, client runs at full rate.
	if unl.PeakOccupancy < 4<<20 {
		t.Fatalf("unlimited-window peak occupancy = %d, expected MBs", unl.PeakOccupancy)
	}
	mid := unl.OccupancySeries[len(unl.OccupancySeries)/2]
	if unl.FinalOccupancy <= mid {
		t.Fatalf("occupancy not monotone-ish: mid=%d final=%d", mid, unl.FinalOccupancy)
	}
	if unl.ClientGbps < 80 {
		t.Fatalf("unlimited client rate = %.1f Gbps", unl.ClientGbps)
	}

	// Limited window: buffer bounded, client HOL-blocked to the 40G drain.
	if lim.PeakOccupancy > 1<<20 {
		t.Fatalf("limited-window peak occupancy = %d, want bounded", lim.PeakOccupancy)
	}
	if lim.ClientGbps > 60 {
		t.Fatalf("limited client rate = %.1f Gbps, expected HOL blocking near 40", lim.ClientGbps)
	}
	if lim.SinkGbps < 30 {
		t.Fatalf("limited sink rate = %.1f Gbps", lim.SinkGbps)
	}
	if !strings.Contains(r.String(), "Figure 2") {
		t.Fatal("missing render")
	}
}

func TestFig3Shapes(t *testing.T) {
	r := RunFig3(Fig3Config{Duration: 4 * time.Millisecond, Outstanding: 1})
	tcp, mtp := r.Rows[0], r.Rows[1]
	if mtp.MeanGbps <= tcp.MeanGbps {
		t.Fatalf("MTP %.1f Gbps not above TCP %.1f", mtp.MeanGbps, tcp.MeanGbps)
	}
	if tcp.CoV <= 2*mtp.CoV {
		t.Fatalf("TCP per-message flows not noisier: CoV %.3f vs %.3f", tcp.CoV, mtp.CoV)
	}
	if tcp.Messages == 0 || mtp.Messages == 0 {
		t.Fatalf("no messages completed: %d / %d", tcp.Messages, mtp.Messages)
	}
	if !strings.Contains(r.String(), "Figure 3") {
		t.Fatal("missing render")
	}
}

func TestFig5Shapes(t *testing.T) {
	r := RunFig5(Fig5Config{Duration: 6 * time.Millisecond})
	if r.MTP.MeanGbps <= r.DCTCP.MeanGbps {
		t.Fatalf("MTP %.1f not above DCTCP %.1f", r.MTP.MeanGbps, r.DCTCP.MeanGbps)
	}
	// MTP should be near the 55 Gbps time-average ceiling of the
	// alternating 100/10 paths.
	if r.MTP.MeanGbps < 45 {
		t.Fatalf("MTP mean %.1f Gbps, want near 55", r.MTP.MeanGbps)
	}
	if r.Improvement <= 0.03 {
		t.Fatalf("improvement %.2f, want meaningful gain", r.Improvement)
	}
	if len(r.MTP.Gbps) < 100 {
		t.Fatalf("series too short: %d samples", len(r.MTP.Gbps))
	}
	if !strings.Contains(r.Samples(), "dctcp_gbps") {
		t.Fatal("missing sample dump")
	}
}

func TestFig5AblationSinglePathlet(t *testing.T) {
	full := RunFig5(Fig5Config{Duration: 5 * time.Millisecond})
	abl := RunFig5(Fig5Config{Duration: 5 * time.Millisecond, SinglePathlet: true})
	// Collapsing all resources into one pathlet removes MTP's advantage:
	// the single shared window mis-sizes on every flip, like TCP.
	if abl.MTP.MeanGbps >= full.MTP.MeanGbps {
		t.Fatalf("single-pathlet ablation %.1f Gbps not below per-pathlet %.1f",
			abl.MTP.MeanGbps, full.MTP.MeanGbps)
	}
}

func TestFig5PeriodSweepShape(t *testing.T) {
	pts := RunFig5PeriodSweep(1, []time.Duration{
		192 * time.Microsecond, 1536 * time.Microsecond,
	}, 5*time.Millisecond, 1)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	fast, slow := pts[0], pts[1]
	// DCTCP loses more the faster the network re-balances; MTP's relative
	// advantage is therefore larger at the shorter period.
	if fast.DCTCPGbps >= slow.DCTCPGbps {
		t.Fatalf("DCTCP %.1f at 192µs not below %.1f at 1.5ms", fast.DCTCPGbps, slow.DCTCPGbps)
	}
	if fast.Improvement <= slow.Improvement {
		t.Fatalf("improvement %.2f at 192µs not above %.2f at 1.5ms",
			fast.Improvement, slow.Improvement)
	}
	if !strings.Contains(SweepString(pts), "period") {
		t.Fatal("missing render")
	}
}

func TestFig6Shapes(t *testing.T) {
	r := RunFig6(Fig6Config{Messages: 150, MaxMsgSize: 8 << 20})
	rows := map[string]Fig6Row{}
	for _, row := range r.Rows {
		rows[row.Policy] = row
		if row.Completed < 140 {
			t.Fatalf("%s completed only %d/150", row.Policy, row.Completed)
		}
	}
	mtp, ecmp, spray, rr := rows["MTP-LB"], rows["ECMP"], rows["Spray"], rows["MsgRR"]
	if mtp.P99us >= ecmp.P99us {
		t.Fatalf("MTP-LB p99 %.0f not below ECMP %.0f", mtp.P99us, ecmp.P99us)
	}
	if mtp.P99us >= spray.P99us {
		t.Fatalf("MTP-LB p99 %.0f not below Spray %.0f", mtp.P99us, spray.P99us)
	}
	// The ablation: blind per-message round-robin keeps atomicity but not
	// size/load visibility; MTP-LB must be at least as good on the mean.
	if mtp.MeanUs > rr.MeanUs*1.05 {
		t.Fatalf("MTP-LB mean %.0f worse than blind MsgRR %.0f", mtp.MeanUs, rr.MeanUs)
	}
	// Spraying splits messages across unequal paths: reordering shows up as
	// spurious retransmissions.
	if spray.Retx <= mtp.Retx {
		t.Fatalf("spray retx %d not above MTP-LB retx %d", spray.Retx, mtp.Retx)
	}
	if !strings.Contains(r.String(), "Figure 6") {
		t.Fatal("missing render")
	}
}

func TestFig6LoadSweepShape(t *testing.T) {
	pts := RunFig6LoadSweep(1, []float64{0.5, 0.9}, 150, 8<<20, 1)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.P99["MTP-LB"] > p.P99["Spray"] {
			t.Fatalf("at load %.1f MTP-LB %.0f above Spray %.0f", p.Load, p.P99["MTP-LB"], p.P99["Spray"])
		}
	}
	// Tails grow with load for every policy.
	if pts[1].P99["MTP-LB"] <= pts[0].P99["MTP-LB"] {
		t.Fatalf("MTP-LB p99 did not grow with load: %v", pts)
	}
	if !strings.Contains(LoadSweepString(pts), "load") {
		t.Fatal("missing render")
	}
}

func TestFig6WebSearchWorkload(t *testing.T) {
	r := RunFig6(Fig6Config{Messages: 150, Workload: "websearch"})
	rows := map[string]Fig6Row{}
	for _, row := range r.Rows {
		rows[row.Policy] = row
	}
	if rows["MTP-LB"].Completed < 140 {
		t.Fatalf("websearch run incomplete: %+v", rows["MTP-LB"])
	}
	if rows["MTP-LB"].P99us > rows["Spray"].P99us {
		t.Fatal("ordering broken on the empirical workload")
	}
}

func TestFig7Shapes(t *testing.T) {
	r := RunFig7(Fig7Config{Duration: 8 * time.Millisecond})
	shared, sep, mtp := r.Rows[0], r.Rows[1], r.Rows[2]
	if shared.Ratio() < 4 {
		t.Fatalf("shared-queue ratio %.1f, want ~8", shared.Ratio())
	}
	if sep.Ratio() > 1.5 || sep.Ratio() < 0.67 {
		t.Fatalf("separate-queue ratio %.1f, want ~1", sep.Ratio())
	}
	if mtp.Ratio() > 2 || mtp.Ratio() < 0.5 {
		t.Fatalf("MTP policy ratio %.1f, want ~1", mtp.Ratio())
	}
	// The MTP system must not sacrifice total throughput for fairness.
	if mtp.Tenant1Gbps+mtp.Tenant2Gbps < 0.6*(shared.Tenant1Gbps+shared.Tenant2Gbps) {
		t.Fatalf("MTP total %.1f collapsed vs shared %.1f",
			mtp.Tenant1Gbps+mtp.Tenant2Gbps, shared.Tenant1Gbps+shared.Tenant2Gbps)
	}
	if !strings.Contains(r.String(), "Figure 7") {
		t.Fatal("missing render")
	}
}

func TestTable1Matrix(t *testing.T) {
	r := goldenTable1(t)
	byName := map[string]Table1Row{}
	for _, row := range r.Rows {
		byName[row.Transport] = row
		if len(row.Cells) != len(table1Features) {
			t.Fatalf("%s has %d cells", row.Transport, len(row.Cells))
		}
	}
	// MTP: every feature measured present.
	for _, c := range byName["MTP"].Cells {
		if !c.Pass {
			t.Fatalf("MTP failed %s: %s", c.Feature, c.Evidence)
		}
	}
	expect := func(transport string, idx int, want bool) {
		c := byName[transport].Cells[idx]
		if c.Pass != want {
			t.Fatalf("%s / %s = %v, want %v (%s)", transport, c.Feature, c.Pass, want, c.Evidence)
		}
	}
	// TCP pass-through: mutation and independence break; no isolation.
	expect("TCP pass-through (DCTCP)", 0, false)
	expect("TCP pass-through (DCTCP)", 2, false)
	expect("TCP pass-through (DCTCP)", 4, false)
	// Termination: mutation works, buffering does not.
	expect("TCP termination (proxy)", 0, true)
	expect("TCP termination (proxy)", 1, false)
	// UDP: mutation and independence for free, no CC and no isolation.
	expect("UDP", 0, true)
	expect("UDP", 3, false)
	expect("UDP", 4, false)
	// ... because shares follow offered load, not because of a drop-tail
	// artefact: 9x the load must take roughly 9x the bandwidth.
	var udpRatio float64
	if _, err := fmt.Sscanf(byName["UDP"].Cells[4].Evidence, "shares track offered load: 9x load → %fx bandwidth", &udpRatio); err != nil || udpRatio < 6 || udpRatio > 13 {
		t.Fatalf("UDP isolation evidence %q: ratio %.1f (%v), want 6x to 13x", byName["UDP"].Cells[4].Evidence, udpRatio, err)
	}
	// MPTCP: the paper's row — ✗ ✗ ✓ ✓ ✗.
	expect("MPTCP (2 subflows)", 0, false)
	expect("MPTCP (2 subflows)", 1, false)
	expect("MPTCP (2 subflows)", 2, true)
	expect("MPTCP (2 subflows)", 3, true)
	expect("MPTCP (2 subflows)", 4, false)
	// Coupled MPTCP: same shape — coupling fixes inter-connection fairness,
	// not per-entity isolation, and leaves the merge buffer alone.
	expect("MPTCP (OLIA coupled)", 0, false)
	expect("MPTCP (OLIA coupled)", 1, false)
	expect("MPTCP (OLIA coupled)", 2, true)
	expect("MPTCP (OLIA coupled)", 3, true)
	expect("MPTCP (OLIA coupled)", 4, false)
	// QUIC: every feature measured absent — streams fix retransmission HoL,
	// not the one-flow-one-window-one-5-tuple architecture.
	for i := range table1Features {
		expect("QUIC", i, false)
	}
	if !strings.Contains(r.String(), "Table 1") {
		t.Fatal("missing render")
	}
}
