package exp

import (
	"fmt"
	"strings"
	"testing"

	"mtp/internal/baseline"
	"mtp/internal/check"
)

// smallScale keeps unit runs cheap: 8 hosts, short messages.
func smallScale(pattern string) ScaleConfig {
	return ScaleConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		Pattern: pattern, MsgSize: 64 << 10, Messages: 2, Incast: 3,
		Seed: 3,
	}
}

// TestScalePatternsComplete checks every traffic pattern drains fully on
// both systems and produces sane statistics.
func TestScalePatternsComplete(t *testing.T) {
	for _, pattern := range []string{"permutation", "incast", "shuffle"} {
		r := RunScale(smallScale(pattern))
		if len(r.Rows) != 2 {
			t.Fatalf("%s: %d rows", pattern, len(r.Rows))
		}
		for _, row := range r.Rows {
			if row.Completed != row.Expected || row.Expected == 0 {
				t.Fatalf("%s/%s: completed %d of %d", pattern, row.System, row.Completed, row.Expected)
			}
			if row.P99us < row.P50us || row.P50us <= 0 {
				t.Fatalf("%s/%s: bad FCTs p50=%f p99=%f", pattern, row.System, row.P50us, row.P99us)
			}
			if row.GoodputGbps <= 0 {
				t.Fatalf("%s/%s: no goodput", pattern, row.System)
			}
		}
	}
}

// TestScaleDeterministic pins the determinism guarantee end to end: the
// rendered result is byte-identical across repeat runs and across Sweep
// worker counts.
func TestScaleDeterministic(t *testing.T) {
	cfg := smallScale("permutation")
	base := RunScale(cfg).String()
	for _, workers := range []int{1, 2, 0} {
		c := cfg
		c.Workers = workers
		if got := RunScale(c).String(); got != base {
			t.Fatalf("workers=%d changed results:\n%s\nvs\n%s", workers, got, base)
		}
	}
}

// TestScaleFatTree runs the permutation on a k=4 fat-tree.
func TestScaleFatTree(t *testing.T) {
	cfg := smallScale("permutation")
	cfg.Topo = "fattree"
	cfg.K = 4
	r := RunScale(cfg)
	if r.Hosts != 16 {
		t.Fatalf("hosts = %d, want 16", r.Hosts)
	}
	for _, row := range r.Rows {
		if row.Completed != row.Expected {
			t.Fatalf("%s: completed %d of %d", row.System, row.Completed, row.Expected)
		}
	}
}

// TestScaleHostSweep checks the parallel host-count sweep: every point
// carries both systems, worker count does not change the results, and the
// rendered table shows the configured rival under its own name.
func TestScaleHostSweep(t *testing.T) {
	for _, b := range []string{"dctcp", "quic"} {
		base := smallScale("permutation")
		base.Baseline = b
		seq := RunScaleHostSweep(1, []int{4, 8}, base)
		par := RunScaleHostSweep(3, []int{4, 8}, base)
		if len(seq) != 2 || len(par) != 2 {
			t.Fatalf("%s: point counts: %d vs %d", b, len(seq), len(par))
		}
		if s, p := ScaleSweepString(seq), ScaleSweepString(par); s != p {
			t.Fatalf("%s: sweep differs between worker counts:\n%s\nvs\n%s", b, s, p)
		}
		// Regression: the table once looked every rival up under DCTCP's row
		// label, so baseline=quic printed zeros under a DCTCP header.
		table := ScaleSweepString(seq)
		short := baseline.MustRival(b).Short
		if !strings.Contains(table, short+" p99") || !strings.Contains(table, short+" gbps") {
			t.Errorf("%s: header does not name the rival:\n%s", b, table)
		}
		for _, pt := range seq {
			rival := pt.Rows[1]
			if rival.System != baseline.MustRival(b).Label || rival.P99us <= 0 || rival.GoodputGbps <= 0 {
				t.Fatalf("%s: bad rival row %+v", b, rival)
			}
			want := fmt.Sprintf("%10.0f %12.0f %10.1f %12.1f",
				pt.Rows[0].P99us, rival.P99us, pt.Rows[0].GoodputGbps, rival.GoodputGbps)
			if !strings.Contains(table, want) {
				t.Errorf("%s: %d-host line does not carry the rival's values %q:\n%s", b, pt.Hosts, want, table)
			}
		}
	}
}

// TestScaleKSweep checks the fat-tree radix sweep and the perf rendering that
// `mtpexp -exp scalesweep topo=fattree` and `-exp scale` print: a sharded
// point carries both systems and a speedup measured against one extra
// single-engine MTP run, and the tables name the configured rival and the
// shard statistics.
func TestScaleKSweep(t *testing.T) {
	base := smallScale("permutation")
	base.Shards, base.Baseline = 2, "quic"
	pts := RunScaleKSweep(1, []int{4}, base)
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	pt := pts[0]
	if pt.Hosts != 16 || pt.Config.Topo != "fattree" || pt.Config.Shards != 2 {
		t.Fatalf("k=4 point ran %d hosts on %q at %d shards", pt.Hosts, pt.Config.Topo, pt.Config.Shards)
	}
	for _, row := range pt.Rows {
		if row.Completed != row.Expected || row.Shards != 2 || row.Events == 0 || row.EventsPerSec() <= 0 {
			t.Fatalf("%s: completed %d of %d on %d shards, %d events", row.System, row.Completed, row.Expected, row.Shards, row.Events)
		}
	}
	if pt.Speedup <= 0 || pt.HeapMB <= 0 {
		t.Fatalf("speedup %.2f, heap %.0f MB: the sharded point measured neither", pt.Speedup, pt.HeapMB)
	}
	table := ScaleKSweepString(pts)
	for _, want := range []string{"QUIC p99", "QUIC gbps", "speedup", fmt.Sprintf("%-4d %6d %7d", 4, 16, 2)} {
		if !strings.Contains(table, want) {
			t.Errorf("radix sweep table lacks %q:\n%s", want, table)
		}
	}
	perf := pt.PerfString()
	for _, want := range []string{"perf MTP", "perf QUIC/ECMP", "2 shard(s)", "rounds", "crossings"} {
		if !strings.Contains(perf, want) {
			t.Errorf("perf lines lack %q:\n%s", want, perf)
		}
	}
	if !strings.Contains(ScaleKSweepString(nil), "Fat-tree sweep") {
		t.Error("empty sweep does not render its title")
	}
}

// TestWriteViolationsCapsTheList pins how a checked run that found
// violations renders them: the first eight, then a count of the rest.
func TestWriteViolationsCapsTheList(t *testing.T) {
	vs := make([]check.Violation, 11)
	for i := range vs {
		vs[i] = check.Violation{Rule: "queue", Detail: fmt.Sprintf("v%d", i)}
	}
	var b strings.Builder
	writeViolations(&b, vs)
	out := b.String()
	if !strings.Contains(out, "v7") || strings.Contains(out, "v8") || !strings.Contains(out, "... 3 more") {
		t.Fatalf("want violations 0-7 and a count of 3 more:\n%s", out)
	}
}
