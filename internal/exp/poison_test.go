package exp

import (
	"testing"
	"time"

	"mtp/internal/simnet"
)

// TestPoisonFreedChangesNothing: a simulated MTP packet's header lives in the
// pooled packet, so anything that keeps pkt.Hdr (or a list sliced from it)
// past the packet's release — a host handler, a switch policy, an offload
// device, a check or core.Observer hook — reads the next packet's header.
// With poison on, released headers read as sentinels instead, so a stale
// reader changes the outcome: a fat-tree incast, the aggregator offload
// through a crash, and the cache/L7-LB chain must all render exactly as they
// do with poison off, invariant harness attached.
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
