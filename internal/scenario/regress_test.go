package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mtp/internal/platform"
)

// TestRegressions replays shrunken scenario seeds that exposed real protocol
// violations when the invariant harness was first dry-run against the tree.
// Each entry is the minimal (seed, overrides) pair the shrinker produced;
// the expectation is always zero violations.
//
// The msglb-sticky-exclude cases caught MessageLB/MessageRR forwarding
// pinned messages onto a pathlet after the sender had excluded it: the
// sticky per-message assignment ignored the filtered candidate set, so a
// failed-over message's retransmissions were steered straight back onto the
// dead pathlet until its final packet index happened to transit. Fixed in
// internal/simnet/switch.go by re-assigning whenever the pinned egress
// drops out of the candidates.
func TestRegressions(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		ov   Overrides
	}{
		{
			// mtpexp -exp scenario seed=51 topo=leafspine leaves=4
			//   spines=2 hostsperleaf=1 messages=2 maxfaults=2 horizon=31ms
			name: "msglb-sticky-exclude-51",
			seed: 51,
			ov: Overrides{
				Topo: "leafspine", Leaves: 4, Spines: 2, HostsPerLeaf: 1,
				Messages: 2, MaxFaults: 2, Horizon: 31 * time.Millisecond,
			},
		},
		{
			// mtpexp -exp scenario seed=58 topo=leafspine leaves=4
			//   spines=2 hostsperleaf=2 messages=4 maxfaults=1 horizon=19ms
			name: "msglb-sticky-exclude-58",
			seed: 58,
			ov: Overrides{
				Topo: "leafspine", Leaves: 4, Spines: 2, HostsPerLeaf: 2,
				Messages: 4, MaxFaults: 1, Horizon: 19 * time.Millisecond,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Run(tc.seed, tc.ov)
			if r.Count > 0 {
				t.Errorf("regression reappeared:\n  %s\n%s", ReproLine(tc.seed, tc.ov), r)
			}
		})
	}
}

// TestRivalRegressions pins one seed per rival baseline under rival=true
// sampling. These seeds were chosen because their last rng draw selects the
// named rival and the fault sampler places link/switch outages in the
// message window, so the pins exercise each rival's retransmission path
// under the network invariant harness. The expectation is zero violations;
// a failure here means a rival endpoint broke a network-level invariant
// (packet conservation, queue bounds) or the seed mapping drifted —
// Generate must only ever append rng draws after the rival dimension.
func TestRivalRegressions(t *testing.T) {
	cases := []struct {
		name  string
		seed  int64
		rival string
	}{
		// mtpexp -exp scenario seed=1 rival=true  (15 msgs, 2 faults, 6 hosts)
		{name: "rival-quic-1", seed: 1, rival: "quic"},
		// mtpexp -exp scenario seed=2 rival=true  (11 msgs, 3 faults, 6 hosts)
		{name: "rival-mptcp-lia-2", seed: 2, rival: "mptcp-lia"},
		// mtpexp -exp scenario seed=12 rival=true  (5 msgs, 3 faults, 3 hosts)
		{name: "rival-mptcp-olia-12", seed: 12, rival: "mptcp-olia"},
	}
	ov := Overrides{MaxFaults: -1, Rival: true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if sp := Generate(tc.seed, ov); sp.Rival != tc.rival {
				t.Fatalf("seed %d now samples rival %q, want %q: the rng draw order changed",
					tc.seed, sp.Rival, tc.rival)
			}
			r := Run(tc.seed, ov)
			if r.Count > 0 {
				t.Errorf("rival regression:\n  %s\n%s", ReproLine(tc.seed, ov), r)
			}
		})
	}
}

// TestRivalDrawIsLast locks the seed-stability contract: enabling rival
// must not perturb any previously sampled dimension, because the rival
// draw is appended after every other dimension (including offload's).
// Old shrunken repro lines would silently replay different scenarios if
// this ever regressed.
func TestRivalDrawIsLast(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		base := Generate(seed, Overrides{MaxFaults: -1})
		rv := Generate(seed, Overrides{MaxFaults: -1, Rival: true})
		if rv.Rival == "" {
			t.Fatalf("seed %d: Rival override sampled no rival", seed)
		}
		rv.Rival = ""
		if !reflect.DeepEqual(base, rv) {
			t.Errorf("seed %d: enabling rival changed the sampled scenario:\nbase: %+v\nrival: %+v",
				seed, base, rv)
		}
	}
}

// TestReproLineRoundTrips: the line a shrunken seed is reported as is a row of
// Row's keys, so parsing and binding it (internal/platform, as mtpexp does)
// gives back the same (seed, Overrides) — for the pinned seeds above and for
// both readings of MaxFaults, free (-1, not printed) and capped to zero.
func TestReproLineRoundTrips(t *testing.T) {
	for _, want := range []Row{
		{Seed: 51, Overrides: Overrides{Topo: "leafspine", Leaves: 4, Spines: 2, HostsPerLeaf: 1,
			Messages: 2, MaxFaults: 2, Horizon: 31 * time.Millisecond}},
		{Seed: 58, Overrides: Overrides{Topo: "leafspine", Leaves: 4, Spines: 2, HostsPerLeaf: 2,
			Messages: 4, MaxFaults: 1, Horizon: 19 * time.Millisecond}},
		{Seed: 12, Overrides: Overrides{MaxFaults: -1, Rival: true}},
		{Seed: 4, Overrides: Overrides{MaxFaults: 0, Offload: true, Horizon: 1500 * time.Microsecond}},
		{Seed: -3, Overrides: NoOverrides()},
	} {
		want.Scenarios = 1
		line := ReproLine(want.Seed, want.Overrides)
		words := strings.Fields(line)
		if strings.Join(words[:3], " ") != "mtpexp -exp scenario" {
			t.Fatalf("repro line %q does not start with the command", line)
		}
		cells, err := platform.ParseCells(words[3:])
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		got := NewRow()
		if err := platform.Bind(platform.Row{Cells: cells}, &got); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if got != want {
			t.Errorf("%s\nbound %+v\nwant  %+v", line, got, want)
		}
	}
}
