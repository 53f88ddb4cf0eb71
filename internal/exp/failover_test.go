package exp

import (
	"testing"
	"time"
)

func TestFailoverMTPRecoversFaster(t *testing.T) {
	r := goldenFailover(t, "dctcp")

	if !r.MTP.Recovered {
		t.Fatal("MTP never recovered")
	}
	if !r.DCTCP.Recovered {
		t.Fatal("DCTCP never recovered")
	}
	if r.Speedup < 5 {
		t.Fatalf("MTP recovered only %.1fx faster than DCTCP, want >= 5x\n%s", r.Speedup, r)
	}
	if r.Failovers == 0 {
		t.Fatalf("MTP sender recorded no failovers\n%s", r)
	}
	if r.Readmissions == 0 {
		t.Fatalf("MTP sender never readmitted the restored pathlet\n%s", r)
	}
	if r.ProbesSent == 0 {
		t.Fatalf("MTP sender never probed the dead pathlet\n%s", r)
	}
	// DCTCP is pinned to the blackholed path: it cannot recover before the
	// blackhole lifts, while MTP reroutes well within it.
	if r.DCTCP.Recovery < r.Config.FaultFor {
		t.Fatalf("DCTCP recovered in %v, before the %v blackhole lifted — the fault is not biting",
			r.DCTCP.Recovery, r.Config.FaultFor)
	}
	if r.MTP.Recovery > r.Config.FaultFor/2 {
		t.Fatalf("MTP took %v to recover, expected failover well within the outage", r.MTP.Recovery)
	}
	if r.MTP.DipGbits >= r.DCTCP.DipGbits {
		t.Fatalf("MTP lost more goodput (%.2f Gbit) than DCTCP (%.2f Gbit)",
			r.MTP.DipGbits, r.DCTCP.DipGbits)
	}
}

func TestFailoverDeterministicForSeed(t *testing.T) {
	cfg := FailoverConfig{Seed: 42}
	a, b := RunFailover(cfg), RunFailover(cfg)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\n---\n%s", a, b)
	}
	if a.Samples() != b.Samples() {
		t.Fatal("same seed produced different sample traces")
	}
}

func TestFailoverShortRunNeverRecovers(t *testing.T) {
	// End the run while the blackhole still holds: DCTCP must report
	// Recovered=false rather than a bogus recovery time.
	r := RunFailover(FailoverConfig{
		Seed:     1,
		FaultAt:  5 * time.Millisecond,
		FaultFor: 20 * time.Millisecond,
		Duration: 15 * time.Millisecond,
	})
	if r.DCTCP.Recovered {
		t.Fatalf("DCTCP claims recovery at %v during the blackhole", r.DCTCP.Recovery)
	}
	if r.Speedup != 0 {
		t.Fatalf("speedup = %.1f without a DCTCP recovery", r.Speedup)
	}
	if !r.MTP.Recovered {
		t.Fatal("MTP should still recover inside the outage")
	}
}
