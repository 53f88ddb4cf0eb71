package cc_test

import (
	"testing"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/cc"
)

const wmss = 1000

// TestWindowGate: every gated window algorithm smooths RTT and rations its
// decreases by the same rules. Non-positive samples are ignored, the first
// positive sample is taken whole, later ones move the estimate by 1/8, and a
// decrease within one smoothed RTT of the last is refused while one a full
// smoothed RTT later lands.
func TestWindowGate(t *testing.T) {
	c := cc.Config{MSS: wmss, InitWindow: 1000 * wmss}
	cases := []struct {
		name string
		algo cc.Algorithm
	}{
		{"aimd", cc.NewAIMD(c)},
		{"dctcp", cc.NewDCTCP(c)},
		{"swift", cc.NewSwift(c)},
		{"mptcp-lia", baseline.NewCoupler(baseline.CouplingLIA, c, 1).Sub(0)},
	}
	ms := time.Millisecond
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.algo
			// RTT samples on ACKs that acknowledge nothing move no window.
			for _, rtt := range []time.Duration{-ms, 0, ms} {
				a.OnAck(0, cc.Signal{RTT: rtt})
			}
			// The smoothed RTT is now 1 ms: a cut at 10 ms lands, one at
			// 10.999 ms is refused, one at 11 ms lands.
			cut := func(now time.Duration, lands bool) {
				t.Helper()
				w := a.Window()
				a.OnLoss(now)
				if got := a.Window() < w; got != lands {
					t.Fatalf("cut at %v: window %v -> %v, want cut=%v", now, w, a.Window(), lands)
				}
			}
			cut(10*ms, true)
			cut(11*ms-time.Microsecond, false)
			cut(11*ms, true)
			// A 9 ms sample makes it (7·1 + 9)/8 = 2 ms.
			a.OnAck(11*ms, cc.Signal{RTT: 9 * ms})
			cut(13*ms-time.Microsecond, false)
			cut(13*ms, true)
		})
	}
}

// TestRateBackstop: the rate-based algorithms' window is 2·rate·srtt/8 plus
// four MSS, within the config's bounds, with srtt 100 µs before any sample.
func TestRateBackstop(t *testing.T) {
	backstop := func(a cc.Algorithm, srtt time.Duration) float64 {
		bps, _ := a.Rate()
		return 2*bps/8*srtt.Seconds() + 4*wmss
	}
	dcqcn := cc.NewDCQCN(cc.Config{MSS: wmss, LineRate: 10e9})
	if got, want := dcqcn.Window(), backstop(dcqcn, 100*time.Microsecond); got != want {
		t.Fatalf("dcqcn before any sample: window %v, want %v", got, want)
	}
	dcqcn.OnAck(0, cc.Signal{RTT: time.Millisecond})
	if got, want := dcqcn.Window(), backstop(dcqcn, time.Millisecond); got != want {
		t.Fatalf("dcqcn: window %v, want %v", got, want)
	}

	rcp := cc.NewRCP(cc.Config{MSS: wmss})
	rcp.OnAck(0, cc.Signal{HasRate: true, RateBps: 8e9, RTT: time.Millisecond})
	if got, want := rcp.Window(), backstop(rcp, time.Millisecond); got != want {
		t.Fatalf("rcp: window %v, want %v", got, want)
	}
	capped := cc.NewRCP(cc.Config{MSS: wmss, MaxWindow: 1e6})
	capped.OnAck(0, cc.Signal{HasRate: true, RateBps: 8e9, RTT: time.Millisecond})
	if got := capped.Window(); got != 1e6 {
		t.Fatalf("rcp capped at 1e6: window %v", got)
	}
}
