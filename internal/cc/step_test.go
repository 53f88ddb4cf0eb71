package cc

import (
	"testing"
	"time"
)

// Step-response tests: each case feeds an algorithm a canned feedback
// sequence in phases (sustained marks, clean acks, explicit rates, delay
// samples, losses) and asserts the direction its control variable moves
// across each phase plus hard bounds after every single step. Unlike the
// scenario-level tests these exercise the state machines in isolation, so a
// failure points directly at the algorithm, not the transport around it.

// ccStep is one repeated feedback event.
type ccStep struct {
	reps int
	dt   time.Duration // virtual time advanced before each rep
	sig  Signal
	loss bool // deliver OnLoss instead of OnAck
}

// ccPhase is a block of steps with an expected direction for the control
// variable (rate for rate-based algorithms, window otherwise) across the
// whole phase.
type ccPhase struct {
	name  string
	steps []ccStep
	want  string // "up", "down", "flat"
}

// control returns the algorithm's primary control variable.
func control(a Algorithm) float64 {
	if bps, ok := a.Rate(); ok {
		return bps
	}
	return a.Window()
}

func TestStepResponse(t *testing.T) {
	const line = 10e9
	mk := func(ecn bool) Signal { return Signal{AckedBytes: mss, ECN: ecn, RTT: us(50)} }
	cases := []struct {
		name string
		algo func() Algorithm
		// windowMax of 0 means unbounded; rateMax of 0 skips the rate ceiling.
		windowMax float64
		rateMax   float64
		phases    []ccPhase
	}{
		{
			name:    "dcqcn",
			algo:    func() Algorithm { return NewDCQCN(Config{MSS: mss, LineRate: line}) },
			rateMax: line,
			phases: []ccPhase{
				// Sustained marks cut the rate multiplicatively.
				{name: "marks", steps: []ccStep{{reps: 40, dt: us(60), sig: mk(true)}}, want: "down"},
				// Clean periods recover it (fast recovery, then additive).
				{name: "recovery", steps: []ccStep{{reps: 200, dt: us(60), sig: mk(false)}}, want: "up"},
				// A loss halves like a hard mark.
				{name: "loss", steps: []ccStep{{reps: 1, dt: us(60), loss: true}}, want: "down"},
				// Long clean stretch climbs back toward line rate without
				// overshooting it (bound enforced per step below).
				{name: "hyper", steps: []ccStep{{reps: 3000, dt: us(60), sig: mk(false)}}, want: "up"},
			},
		},
		{
			name: "rcp",
			algo: func() Algorithm { return NewRCP(Config{MSS: mss}) },
			phases: []ccPhase{
				// Acks without rate feedback leave the controller untouched.
				{name: "no-feedback", steps: []ccStep{{reps: 10, dt: us(50), sig: mk(false)}}, want: "flat"},
				// First explicit rate is adopted outright.
				{name: "adopt", steps: []ccStep{{reps: 1, dt: us(50),
					sig: Signal{AckedBytes: mss, HasRate: true, RateBps: 8e9, RTT: us(100)}}}, want: "up"},
				// Higher advertised rates pull the EWMA up...
				{name: "raise", steps: []ccStep{{reps: 20, dt: us(50),
					sig: Signal{AckedBytes: mss, HasRate: true, RateBps: 40e9, RTT: us(100)}}}, want: "up"},
				// ...and lower ones pull it down.
				{name: "lower", steps: []ccStep{{reps: 20, dt: us(50),
					sig: Signal{AckedBytes: mss, HasRate: true, RateBps: 2e9, RTT: us(100)}}}, want: "down"},
				// Loss is a safety halving until the network restores the rate.
				{name: "loss", steps: []ccStep{{reps: 1, dt: us(50), loss: true}}, want: "down"},
			},
		},
		{
			name: "swift",
			algo: func() Algorithm {
				return NewSwift(Config{MSS: mss, MaxWindow: 1 << 22})
			},
			windowMax: 1 << 22,
			phases: []ccPhase{
				// Delay below target: additive growth.
				{name: "below-target", steps: []ccStep{{reps: 50, dt: us(10),
					sig: Signal{AckedBytes: mss, HasDelay: true, Delay: us(5), RTT: us(100)}}}, want: "up"},
				// Delay above target: multiplicative decrease (spaced beyond an
				// RTT so each mark is eligible to cut).
				{name: "above-target", steps: []ccStep{{reps: 5, dt: us(500),
					sig: Signal{AckedBytes: mss, HasDelay: true, Delay: us(250), RTT: us(100)}}}, want: "down"},
				// Acks without delay feedback count as uncongested: growth.
				{name: "no-delay", steps: []ccStep{{reps: 50, dt: us(10), sig: mk(false)}}, want: "up"},
				// Loss cuts by swiftMaxMDF.
				{name: "loss", steps: []ccStep{{reps: 1, dt: us(500), loss: true}}, want: "down"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.algo()
			norm := Config{MSS: mss}.Normalized()
			now := time.Duration(0)
			for _, ph := range tc.phases {
				before := control(a)
				for _, st := range ph.steps {
					for i := 0; i < st.reps; i++ {
						now += st.dt
						if st.loss {
							a.OnLoss(now)
						} else {
							a.OnAck(now, st.sig)
						}
						// Hard bounds hold after every individual step.
						if w := a.Window(); w < float64(norm.MSS) {
							t.Fatalf("%s: window %v below the one-MSS floor", ph.name, w)
						}
						if tc.windowMax > 0 && a.Window() > tc.windowMax {
							t.Fatalf("%s: window %v above cap %v", ph.name, a.Window(), tc.windowMax)
						}
						if bps, ok := a.Rate(); ok {
							if bps <= 0 {
								t.Fatalf("%s: non-positive rate %v", ph.name, bps)
							}
							if tc.rateMax > 0 && bps > tc.rateMax {
								t.Fatalf("%s: rate %.2f Gbps above line rate", ph.name, bps/1e9)
							}
						}
					}
				}
				after := control(a)
				switch ph.want {
				case "up":
					if after <= before {
						t.Errorf("%s: control %v -> %v, want increase", ph.name, before, after)
					}
				case "down":
					if after >= before {
						t.Errorf("%s: control %v -> %v, want decrease", ph.name, before, after)
					}
				case "flat":
					if after != before {
						t.Errorf("%s: control %v -> %v, want unchanged", ph.name, before, after)
					}
				}
			}
		})
	}
}

// TestStepResponseMarkFraction drives DCQCN and Swift with interleaved
// mark/no-mark patterns and checks the steady-state ordering: a higher mark
// fraction must settle at a lower rate/window. This is the convergence
// property the step phases above cannot see (they only test direction).
func TestStepResponseMarkFraction(t *testing.T) {
	settle := func(a Algorithm, markEvery int) float64 {
		now := time.Duration(0)
		for i := 0; i < 5000; i++ {
			now += us(60)
			a.OnAck(now, Signal{AckedBytes: mss, ECN: markEvery > 0 && i%markEvery == 0, RTT: us(50)})
		}
		return control(a)
	}
	t.Run("dcqcn", func(t *testing.T) {
		// Recovery is aggressive enough that sparse marks (1 in 25+) are fully
		// absorbed between cuts, so the light case uses 1-in-8 marking, which
		// still settles measurably below a clean link.
		heavy := settle(NewDCQCN(Config{MSS: mss}), 2)
		light := settle(NewDCQCN(Config{MSS: mss}), 8)
		clean := settle(NewDCQCN(Config{MSS: mss}), 0)
		if !(heavy < light && light < clean) {
			t.Fatalf("steady rates not ordered by mark fraction: 1/2=%.2f 1/8=%.2f clean=%.2f Gbps",
				heavy/1e9, light/1e9, clean/1e9)
		}
		if clean != 10e9 {
			t.Fatalf("clean traffic did not return to line rate: %.2f Gbps", clean/1e9)
		}
	})
	t.Run("dctcp", func(t *testing.T) {
		heavy := settle(NewDCTCP(Config{MSS: mss, MaxWindow: 1 << 22}), 2)
		light := settle(NewDCTCP(Config{MSS: mss, MaxWindow: 1 << 22}), 50)
		if heavy >= light {
			t.Fatalf("steady windows not ordered by mark fraction: 1/2=%v 1/50=%v", heavy, light)
		}
	})
}
