package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output (make golden)")

// TestGolden pins Result.String() — spec line, delivered/completed counts and
// the engine's event count — for the seeds regress_test.go names, plus one
// DCTCP seed so every rival's open-loop wiring is covered. The event count
// makes this an event-for-event pin: a changed connection or stream ID, an
// extra timer or a reordered callback all move it.
func TestGolden(t *testing.T) {
	rival := Overrides{MaxFaults: -1, Rival: true}
	cases := []struct {
		name string
		seed int64
		ov   Overrides
	}{
		{"msglb-sticky-exclude-51", 51, Overrides{
			Topo: "leafspine", Leaves: 4, Spines: 2, HostsPerLeaf: 1,
			Messages: 2, MaxFaults: 2, Horizon: 31 * time.Millisecond,
		}},
		{"msglb-sticky-exclude-58", 58, Overrides{
			Topo: "leafspine", Leaves: 4, Spines: 2, HostsPerLeaf: 2,
			Messages: 4, MaxFaults: 1, Horizon: 19 * time.Millisecond,
		}},
		{"rival-quic-1", 1, rival},
		{"rival-mptcp-lia-2", 2, rival},
		{"rival-mptcp-olia-12", 12, rival},
		{"rival-dctcp-4", 4, rival},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Run(tc.seed, tc.ov).String()
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make golden` to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from its golden:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
