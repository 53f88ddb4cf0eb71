package exp

import (
	"strings"
	"testing"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/check"
	"mtp/internal/core"
	"mtp/internal/simnet"
)

func TestExclusionSteersAwayFromCongestion(t *testing.T) {
	r := RunExclusion(8 * time.Millisecond)
	if r.Exclusions == 0 {
		t.Fatal("auto-exclude never fired")
	}
	// Excluding the congested pathlet should at least triple goodput in
	// this topology (spraying over a 90%-loaded path vs a clean path).
	if r.WithGbps < 2*r.WithoutGbps {
		t.Fatalf("goodput %.1f -> %.1f: exclusion ineffective", r.WithoutGbps, r.WithGbps)
	}
	if r.CongestedShare > 0.25 {
		t.Fatalf("%.0f%% of traffic still on the excluded path", r.CongestedShare*100)
	}
	if !strings.Contains(r.String(), "exclusion") {
		t.Fatal("missing render")
	}
}

// TestExclusionUnderCheck: RunExclusion's congested two-path rig under the
// invariant checker. The sender excludes the congested pathlet, the
// exclusion expires, and it is excluded again; an expiry is no failover
// readmission, so the checker's failover audit has nothing to report.
func TestExclusionUnderCheck(t *testing.T) {
	rig := newTwoPath(twoPathSpec{
		FastRate: 10e9, SlowRate: 10e9, LinkDelay: time.Microsecond, SlowDelay: time.Microsecond,
		QueueCap: 128, ECNThreshold: 20, EdgeRate: 20e9, EdgeQueue: 2048,
		Seed: 1, Policy: &simnet.Spray{}, Pathlets: 2,
	})
	chk := check.New(rig.eng, rig.net)
	baseline.NewUDPSender(rig.eng, baseline.Route{Pool: rig.net, Emit: rig.fast.Enqueue},
		99, rig.rcv.ID(), 1460, 9e9).Start()
	sender, _ := rig.runMTP(core.Config{RTO: 2 * time.Millisecond, AutoExclude: true},
		chk, time.Millisecond, 12*time.Millisecond)
	chk.Finalize()
	// A second exclusion of the one congested pathlet means the first expired.
	if n := sender.EP.Stats.Exclusions; n < 2 {
		t.Fatalf("%d exclusions: none expired and recurred", n)
	}
	if err := chk.Err(); err != nil {
		t.Fatalf("%v\n%v", err, chk.Violations())
	}
}

func TestMultiAlgorithmCoexistence(t *testing.T) {
	r := RunMultiAlgo(8 * time.Millisecond)
	if r.RCPPathAlgo != "rcp" || r.ECNPathAlgo != "dctcp" {
		t.Fatalf("algorithms = %q / %q", r.RCPPathAlgo, r.ECNPathAlgo)
	}
	// The sender must track both resources and run near the 10 Gbps
	// bottleneck without collapsing.
	if r.GoodputGbps < 7 {
		t.Fatalf("goodput %.1f Gbps of 10", r.GoodputGbps)
	}
	if r.RCPRateGbps <= 0 {
		t.Fatal("no explicit rate learned on the RCP pathlet")
	}
	if !strings.Contains(r.String(), "rcp") {
		t.Fatal("missing render")
	}
}

func TestPrioritySchedulingCutsTail(t *testing.T) {
	r := RunPriority(8 * time.Millisecond)
	if r.FIFOp99us == 0 || r.PriorityP99us == 0 {
		t.Fatalf("missing measurements: %+v", r)
	}
	// Priority queues keyed on the header's MsgPri must cut the
	// high-priority tail by at least 10x under bulk load.
	if r.PriorityP99us*10 > r.FIFOp99us {
		t.Fatalf("priority p99 %.0f us vs FIFO %.0f us: insufficient gain",
			r.PriorityP99us, r.FIFOp99us)
	}
}

func TestTrimBeatsDropOnIncast(t *testing.T) {
	r := RunTrim()
	if r.Trims == 0 {
		t.Fatal("no trims occurred")
	}
	if r.TrimFCTus >= r.DropFCTus {
		t.Fatalf("trim tail %.0f us not below drop tail %.0f us", r.TrimFCTus, r.DropFCTus)
	}
	// Lossless forwarding: zero drops, pauses observed, and a tail at least
	// as good as trimming on this pure-incast pattern.
	if r.LosslessDrops != 0 {
		t.Fatalf("lossless run dropped %d packets", r.LosslessDrops)
	}
	if r.Pauses == 0 {
		t.Fatal("lossless run never paused")
	}
	if r.LosslessFCTus >= r.DropFCTus {
		t.Fatalf("lossless tail %.0f us not below drop tail %.0f us", r.LosslessFCTus, r.DropFCTus)
	}
}

func TestExtensionsSummaryRenders(t *testing.T) {
	s := ExtensionsSummary()
	for _, want := range []string{"exclusion", "Multi-algorithm", "Priority", "Incast"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}
