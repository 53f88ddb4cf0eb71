package scenario

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"mtp/internal/simnet"
)

// TestScenarioSweep runs a batch of seeded random scenarios — fabric,
// workload, and fault schedule all sampled — under the full invariant set
// and requires zero violations. SCENARIO_SEEDS overrides the seed count
// (the nightly CI job runs 500).
func TestScenarioSweep(t *testing.T) {
	n := seedCount(t, 60, 10)
	for seed := int64(1); seed <= int64(n); seed++ {
		r := Run(seed, NoOverrides())
		if r.Count > 0 {
			min, res := Shrink(seed, NoOverrides())
			t.Errorf("seed %d violated invariants; shrunk repro:\n  %s\n%s",
				seed, ReproLine(seed, min), res)
		}
	}
}

// seedCount returns the sweep seed count: SCENARIO_SEEDS when set (the
// nightly CI job passes 500), else short/default.
func seedCount(t *testing.T, def, short int) int {
	if s := os.Getenv("SCENARIO_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad SCENARIO_SEEDS %q", s)
		}
		return v
	}
	if testing.Short() {
		return short
	}
	return def
}

// TestScenarioOffloadSweep re-runs a batch with in-network device placement
// opted in: an interposing cache or detect-mode IDS sits on a sampled
// switch, crash faults wipe its state mid-run, and every transport
// invariant must still hold.
func TestScenarioOffloadSweep(t *testing.T) {
	n := seedCount(t, 30, 8)
	ov := NoOverrides()
	ov.Offload = true
	placed := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		r := Run(seed, ov)
		if r.Spec.Offload != "" {
			placed++
		}
		if r.Count > 0 {
			min, res := Shrink(seed, ov)
			t.Errorf("seed %d violated invariants with offload device; shrunk repro:\n  %s\n%s",
				seed, ReproLine(seed, min), res)
		}
	}
	if placed != n {
		t.Fatalf("device placed in %d/%d runs", placed, n)
	}
}

// TestScenarioRivalSweep re-runs a batch with the rival baseline sampled per
// seed: the same fabrics, workloads, and fault schedules run over DCTCP,
// coupled MPTCP (LIA/OLIA), or the QUIC-like baseline instead of MTP
// endpoints. The rivals promise nothing about delivery, but the network-level
// invariants (conservation, queue bounds) must hold and no endpoint may
// panic or wedge the engine.
func TestScenarioRivalSweep(t *testing.T) {
	n := seedCount(t, 30, 8)
	ov := NoOverrides()
	ov.Rival = true
	sampled := map[string]int{}
	for seed := int64(1); seed <= int64(n); seed++ {
		r := Run(seed, ov)
		sampled[r.Spec.Rival]++
		if r.Count > 0 {
			min, res := Shrink(seed, ov)
			t.Errorf("seed %d violated invariants under rival baseline; shrunk repro:\n  %s\n%s",
				seed, ReproLine(seed, min), res)
		}
	}
	if sampled[""] > 0 {
		t.Fatalf("%d/%d runs sampled no rival", sampled[""], n)
	}
	t.Logf("rival mix: %v", sampled)
}

// TestOffloadDrawsAppendAfterExisting pins the rng discipline that keeps
// recorded repro seeds (regress_test.go) valid: enabling Offload must not
// change any other sampled dimension, because its draws come after all
// existing ones.
func TestOffloadDrawsAppendAfterExisting(t *testing.T) {
	ov := NoOverrides()
	ov.Offload = true
	for seed := int64(1); seed <= 50; seed++ {
		plain := Generate(seed, NoOverrides())
		with := Generate(seed, ov)
		if with.Offload == "" {
			t.Fatalf("seed %d: no device sampled with Offload on", seed)
		}
		with.Offload, with.OffloadTarget = "", 0
		if fmt.Sprintf("%+v", plain) != fmt.Sprintf("%+v", with) {
			t.Fatalf("seed %d: offload opt-in perturbed the sampled scenario:\n%+v\nvs\n%+v",
				seed, plain, with)
		}
	}
}

// TestScenarioDeterministic re-runs one seed and requires bit-identical
// outcomes — the property that makes a shrunken seed a usable repro.
func TestScenarioDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := Run(seed, NoOverrides())
		b := Run(seed, NoOverrides())
		if a.Count != b.Count || a.Delivered != b.Delivered ||
			a.Completed != b.Completed || a.Events != b.Events {
			t.Fatalf("seed %d not deterministic: %+v vs %+v", seed,
				[4]int{a.Count, a.Delivered, a.Completed, int(a.Events)},
				[4]int{b.Count, b.Delivered, b.Completed, int(b.Events)})
		}
	}
}

// TestScenarioShrinksInjectedBug proves the harness catches a deliberately
// injected protocol bug and shrinks it to a small repro: with the switch
// exclude-list filter disabled (the bug class PR 3 fixed), the checker's
// forwarding audit must flag traffic steered onto excluded pathlets, and the
// shrinker must reduce the scenario to at most 8 hosts.
func TestScenarioShrinksInjectedBug(t *testing.T) {
	simnet.SetBrokenExcludeFilter(true)
	defer simnet.SetBrokenExcludeFilter(false)

	// The first violating seed of 200, shrunk.
	seed := int64(1)
	for ; seed <= 200 && Run(seed, NoOverrides()).Count == 0; seed++ {
	}
	if seed > 200 {
		t.Fatal("injected exclude-filter bug escaped 200 seeded scenarios")
	}
	min, res := Shrink(seed, NoOverrides())
	exclude := false
	for _, v := range res.Violations {
		if v.Rule == "exclude" {
			exclude = true
			break
		}
	}
	if !exclude {
		t.Fatalf("seed %d caught rules other than \"exclude\":\n%s", seed, res)
	}
	if res.Spec.Hosts > 8 {
		t.Errorf("shrunk repro still has %d hosts, want <= 8\n%s", res.Spec.Hosts, res)
	}
	t.Logf("caught and shrunk: %s\n%s", ReproLine(seed, min), res)
}
