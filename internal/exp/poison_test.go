package exp

import (
	"testing"
	"time"

	"mtp/internal/scenario"
	"mtp/internal/simnet"
)

// TestPoisonFreedChangesNothing: a simulated MTP packet's header lives in the
// pooled packet, and so does a DCTCP packet's segment, so anything that keeps
// pkt.Hdr (or a list sliced from it) or the segment past the packet's release
// — a host handler, a switch policy, an offload device, a check audit or
// core.Observer, a duplicate or a shard crossing sharing the original's
// — reads the next packet's. With poison on, released headers and segments
// read as sentinels instead, so a stale reader changes the outcome: a fat-tree
// incast of both rows (one engine and two shards), the DCTCP row of a
// scenario through duplicating trunks, the aggregator offload through a crash,
// and the cache/L7-LB chain must all render exactly as they do with poison
// off, invariant harness attached.
func TestPoisonFreedChangesNothing(t *testing.T) {
	runs := []struct {
		name string
		run  func() string
	}{
		{"incast", func() string {
			return RunScale(ScaleConfig{Topo: "fattree", K: 4, Pattern: "incast", Incast: 8,
				MsgSize: 64 << 10, Messages: 2, Workers: 1, Check: true}).String()
		}},
		{"incast/2shards", func() string {
			return RunScale(ScaleConfig{Topo: "fattree", K: 4, Pattern: "incast", Incast: 8,
				MsgSize: 64 << 10, Messages: 2, Workers: 1, Shards: 2, Check: true}).String()
		}},
		{"dctcp/duplicate", func() string {
			// Seed 4 samples the DCTCP rival on a 9-host leaf-spine; its
			// sampled fault gives way to every trunk duplicating 5 % of what
			// it carries, segments and ACKs alike, for the whole run.
			sp := scenario.Generate(4, scenario.Overrides{MaxFaults: -1, Rival: true})
			if sp.Rival != "dctcp" {
				t.Fatalf("seed 4 samples rival %q, want dctcp", sp.Rival)
			}
			sp.Faults = nil
			for trunk := 0; trunk < 2*sp.Leaves*sp.Spines; trunk++ {
				sp.Faults = append(sp.Faults, scenario.FaultSpec{Kind: "duplicate", Target: trunk, P: 0.05})
			}
			return scenario.RunSpec(sp).String()
		}},
		{"aggregator", func() string {
			return RunOffFail(OffFailConfig{Duration: 20 * time.Millisecond, Check: true}).String()
		}},
		{"cache", func() string {
			return RunFig1(Fig1Config{Requests: 100}).String()
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			want := r.run()
			simnet.SetPoisonFreed(true)
			defer simnet.SetPoisonFreed(false)
			if got := r.run(); got != want {
				t.Errorf("result differs with released packets poisoned:\n--- poison off\n%s--- poison on\n%s", want, got)
			}
		})
	}
}
