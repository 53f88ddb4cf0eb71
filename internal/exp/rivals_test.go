package exp

import (
	"fmt"
	"strings"
	"testing"

	"mtp/internal/baseline"
)

var allBaselines = []string{"dctcp", "mptcp-lia", "mptcp-olia", "quic"}

// TestScaleRivalBaselinesComplete drains the small permutation under every
// rival transport: all planned messages complete, goodput is sane, and the
// result row is labeled for the configured baseline.
func TestScaleRivalBaselinesComplete(t *testing.T) {
	for _, b := range allBaselines {
		cfg := smallScale("permutation")
		cfg.Baseline = b
		r := RunScale(cfg)
		if len(r.Rows) != 2 {
			t.Fatalf("%s: %d rows", b, len(r.Rows))
		}
		row := r.Rows[1]
		if row.System != baseline.MustRival(b).Label {
			t.Fatalf("%s: row labeled %q", b, row.System)
		}
		if row.Completed != row.Expected || row.Expected == 0 {
			t.Fatalf("%s: completed %d of %d", b, row.Completed, row.Expected)
		}
		if row.GoodputGbps <= 0 {
			t.Fatalf("%s: no goodput", b)
		}
	}
}

// TestFailoverRivalBaselines runs the blackhole experiment against each
// rival transport and pins the architectural story: QUIC's single flow ID
// leaves it pinned to the dead path exactly like DCTCP, while coupled MPTCP
// — the strongest rival, holding a standing subflow on the surviving path —
// recovers during the outage via dead-path reinjection and loses visibly
// less goodput than DCTCP.
func TestFailoverRivalBaselines(t *testing.T) {
	dctcp := goldenFailover(t, "dctcp")

	quic := goldenFailover(t, "quic")
	if quic.DCTCP.Name != "QUIC" {
		t.Fatalf("rival series named %q", quic.DCTCP.Name)
	}
	if !strings.Contains(quic.String(), "faster than QUIC") {
		t.Fatalf("rendered result does not name the rival:\n%s", quic)
	}
	if !quic.DCTCP.Recovered {
		t.Fatal("QUIC never recovered even after the blackhole lifted")
	}
	if quic.DCTCP.Recovery < quic.Config.FaultFor {
		t.Fatalf("QUIC recovered in %v, before the %v blackhole lifted — one flow ID must pin it to the dead path",
			quic.DCTCP.Recovery, quic.Config.FaultFor)
	}
	if quic.Speedup < 5 {
		t.Fatalf("MTP only %.1fx faster than QUIC, want >= 5x\n%s", quic.Speedup, quic)
	}

	for _, b := range []string{"mptcp-lia", "mptcp-olia"} {
		r := goldenFailover(t, b)
		if r.DCTCP.Name != baseline.MustRival(b).Short {
			t.Fatalf("%s: rival series named %q", b, r.DCTCP.Name)
		}
		if !r.DCTCP.Recovered || r.DCTCP.Recovery >= r.Config.FaultFor {
			t.Fatalf("%s: recovery %v (recovered=%v) — the surviving subflow plus reinjection should recover during the %v outage",
				b, r.DCTCP.Recovery, r.DCTCP.Recovered, r.Config.FaultFor)
		}
		if r.DCTCP.DipGbits >= dctcp.DCTCP.DipGbits {
			t.Fatalf("%s lost %.2f Gbit, no better than single-path DCTCP's %.2f — reinjection is not delivering",
				b, r.DCTCP.DipGbits, dctcp.DCTCP.DipGbits)
		}
		// MTP's failover is still required to hold its own against the
		// multipath rival on goodput lost to the fault.
		if r.MTP.DipGbits > r.DCTCP.DipGbits {
			t.Fatalf("%s: MTP lost more goodput (%.2f Gbit) than the rival (%.2f Gbit)",
				b, r.MTP.DipGbits, r.DCTCP.DipGbits)
		}
	}
}

// rivalFingerprint renders the deterministic portion of a rival row — every
// stat except engine wall-clock performance.
func rivalFingerprint(row ScaleRow) string {
	return fmt.Sprintf("sys=%s done=%d/%d p50=%.3f p99=%.3f gbps=%.6f qpeak=%d qp99=%.3f retx=%d checked=%v viol=%d events=%d",
		row.System, row.Completed, row.Expected, row.P50us, row.P99us,
		row.GoodputGbps, row.QueuePeak, row.QueueP99, row.Retx,
		row.Checked, row.ViolationCount, row.Events)
}

// TestScaleRivalDeterminism128 is the rival determinism regression: each of
// the four baselines runs the 128-host permutation twice with the same seed
// under the invariant harness, and both runs must produce byte-identical
// statistics (including the engine event count) with every message delivered
// and zero invariant violations. Run under -race this also shakes out data
// races in the per-baseline setup paths.
func TestScaleRivalDeterminism128(t *testing.T) {
	if testing.Short() {
		t.Skip("128-host run")
	}
	for _, b := range allBaselines {
		cfg := ScaleConfig{
			Pattern: "permutation", MsgSize: 128 << 10, Messages: 1,
			Seed: 7, Check: true, Baseline: b,
		}.withDefaults() // default fabric: 16 leaves x 4 spines x 8 = 128 hosts
		one := rivalFingerprint(runScale(cfg, baseline.MustRival(b).Label))
		two := rivalFingerprint(runScale(cfg, baseline.MustRival(b).Label))
		if one != two {
			t.Fatalf("%s nondeterministic at 128 hosts:\n%s\n%s", b, one, two)
		}
		row := runScale(cfg, baseline.MustRival(b).Label) // third run for the assertions below
		if row.Completed != row.Expected || row.Expected != 128 {
			t.Errorf("%s: completed %d of %d", b, row.Completed, row.Expected)
		}
		if !row.Checked || row.ViolationCount != 0 {
			t.Errorf("%s: checked=%v with %d invariant violations: %v",
				b, row.Checked, row.ViolationCount, row.Violations)
		}
		t.Logf("%s: %s", b, one)
	}
}
