package baseline

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mtp/internal/cc"
	"mtp/internal/simnet"
)

const cmss = 1460

// coupStep feeds one repeated event to one subflow of a coupler.
type coupStep struct {
	sub   int
	reps  int
	dt    time.Duration
	acked int
	ecn   bool
	loss  bool
	rtt   time.Duration
}

// coupPhase groups steps with an expected direction for one subflow's
// window across the phase — the cc step-response style applied to coupled
// windows.
type coupPhase struct {
	name  string
	steps []coupStep
	watch int
	want  string // "up", "down"
}

// TestCoupledStepResponse drives LIA and OLIA windows with canned feedback
// and asserts the direction each phase moves the watched subflow, plus hard
// floor/cap bounds after every step.
func TestCoupledStepResponse(t *testing.T) {
	ack := func(sub, reps int) coupStep {
		return coupStep{sub: sub, reps: reps, dt: us(50), acked: cmss, rtt: us(100)}
	}
	phases := []coupPhase{
		// A loss on each path exits slow start with a multiplicative cut.
		{name: "loss-sub0", steps: []coupStep{{sub: 0, reps: 1, dt: us(200), loss: true}}, watch: 0, want: "down"},
		{name: "loss-sub1", steps: []coupStep{{sub: 1, reps: 1, dt: us(200), loss: true}}, watch: 1, want: "down"},
		// Clean acks in congestion avoidance grow the window.
		{name: "ca-increase", steps: []coupStep{ack(0, 50), ack(1, 50)}, watch: 0, want: "up"},
		// An ECN mark (spaced beyond an RTT from the last cut) halves.
		{name: "ecn-cut", steps: []coupStep{{sub: 0, reps: 1, dt: us(500), acked: cmss, ecn: true, rtt: us(100)}}, watch: 0, want: "down"},
		// Recovery resumes after the cut.
		{name: "recover", steps: []coupStep{ack(0, 80), ack(1, 80)}, watch: 0, want: "up"},
	}
	for _, kind := range []Coupling{CouplingLIA, CouplingOLIA} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := cc.Config{MSS: cmss, MaxWindow: 1 << 22}
			c := NewCoupler(kind, cfg, 2)
			norm := cfg.Normalized()
			now := time.Duration(0)
			for _, ph := range phases {
				before := c.Sub(ph.watch).Window()
				for _, st := range ph.steps {
					for i := 0; i < st.reps; i++ {
						now += st.dt
						w := c.Sub(st.sub)
						if st.loss {
							w.OnLoss(now)
						} else {
							w.OnAck(now, cc.Signal{AckedBytes: st.acked, ECN: st.ecn, RTT: st.rtt})
						}
						for s := 0; s < 2; s++ {
							if got := c.Sub(s).Window(); got < float64(norm.MSS) {
								t.Fatalf("%s: sub %d window %v below the one-MSS floor", ph.name, s, got)
							}
							if got := c.Sub(s).Window(); got > norm.MaxWindow {
								t.Fatalf("%s: sub %d window %v above cap %v", ph.name, s, got, norm.MaxWindow)
							}
						}
					}
				}
				after := c.Sub(ph.watch).Window()
				switch ph.want {
				case "up":
					if after <= before {
						t.Errorf("%s: window %v -> %v, want increase", ph.name, before, after)
					}
				case "down":
					if after >= before {
						t.Errorf("%s: window %v -> %v, want decrease", ph.name, before, after)
					}
				}
			}
		})
	}
}

// TestCoupledSinglePathIsReno pins the degenerate case both RFC formulas
// must satisfy: with one subflow, the coupled increase reduces exactly to
// Reno congestion avoidance (acked*MSS/cwnd per ack).
func TestCoupledSinglePathIsReno(t *testing.T) {
	for _, kind := range []Coupling{CouplingLIA, CouplingOLIA} {
		t.Run(string(kind), func(t *testing.T) {
			c := NewCoupler(kind, cc.Config{MSS: cmss}, 1)
			w := c.Sub(0)
			now := us(100)
			w.OnLoss(now) // exit slow start
			ref := NewCoupler(kind, cc.Config{MSS: cmss}, 1).Sub(0)
			ref.cwnd = w.cwnd
			ref.ssthresh = w.ssthresh
			for i := 0; i < 200; i++ {
				now += us(50)
				before := w.cwnd
				w.OnAck(now, cc.Signal{AckedBytes: cmss, RTT: us(100)})
				wantInc := float64(cmss) * float64(cmss) / before
				gotInc := w.cwnd - before
				if math.Abs(gotInc-wantInc) > 1e-6 {
					t.Fatalf("ack %d: increase %.9f, Reno would be %.9f", i, gotInc, wantInc)
				}
			}
		})
	}
}

// TestCoupledAggregateBound pins RFC 6356's "do no harm" property: two
// coupled subflows sharing one bottleneck (equal RTTs) must not grow their
// aggregate window faster than a single Reno flow receiving the same total
// ack stream — for any split of the windows. The uncoupled model, by
// contrast, grows twice as fast (also asserted, to show the test has
// teeth).
func TestCoupledAggregateBound(t *testing.T) {
	const rtt = 100 * time.Microsecond
	cases := []struct {
		name   string
		w0, w1 float64 // starting windows after the loss episode
	}{
		{"equal-split", 20 * cmss, 20 * cmss},
		{"asymmetric", 32 * cmss, 8 * cmss},
	}
	for _, kind := range []Coupling{CouplingLIA, CouplingOLIA} {
		for _, tc := range cases {
			t.Run(string(kind)+"/"+tc.name, func(t *testing.T) {
				c := NewCoupler(kind, cc.Config{MSS: cmss}, 2)
				// Place both subflows in congestion avoidance at the chosen
				// windows (the bound is about the CA increase).
				for i, w := range []float64{tc.w0, tc.w1} {
					c.Sub(i).cwnd = w
					c.Sub(i).ssthresh = w
					c.Sub(i).gate.Observe(rtt)
				}
				single := cc.NewAIMD(cc.Config{MSS: cmss, InitWindow: tc.w0 + tc.w1})
				singleLoss := time.Duration(0)
				single.OnLoss(singleLoss) // enter CA...
				// ...at half the window; rebuild exactly at the aggregate.
				single = cc.NewAIMD(cc.Config{MSS: cmss, InitWindow: 2 * (tc.w0 + tc.w1)})
				single.OnLoss(singleLoss)
				if single.Window() != tc.w0+tc.w1 {
					t.Fatalf("single-flow setup: window %v != aggregate %v", single.Window(), tc.w0+tc.w1)
				}

				aggStart := c.Sub(0).Window() + c.Sub(1).Window()
				now := time.Duration(0)
				// Deliver acks in proportion to the windows (a shared
				// bottleneck serves each flow at its window's share), one
				// MSS at a time: 4 acks to sub0 per cycle of (4+1) for the
				// asymmetric case reduces to simple alternation when equal.
				r0 := int(math.Round(4 * tc.w0 / (tc.w0 + tc.w1)))
				if r0 < 1 {
					r0 = 1
				}
				for i := 0; i < 2000; i++ {
					now += us(25)
					sub := 1
					if i%5 < r0 {
						sub = 0
					}
					c.Sub(sub).OnAck(now, cc.Signal{AckedBytes: cmss, RTT: rtt})
					single.OnAck(now, cc.Signal{AckedBytes: cmss, RTT: rtt})
				}
				aggGrowth := c.Sub(0).Window() + c.Sub(1).Window() - aggStart
				singleGrowth := single.Window() - (tc.w0 + tc.w1)
				if aggGrowth > singleGrowth*1.01+1 {
					t.Fatalf("coupled aggregate grew %.0f bytes, single flow only %.0f — coupling is too aggressive",
						aggGrowth, singleGrowth)
				}
				if aggGrowth <= 0 {
					t.Fatalf("coupled aggregate did not grow at all (%.0f)", aggGrowth)
				}

				// The uncoupled strawman: two independent Reno flows gain
				// roughly double the single flow — without coupling the test
				// above would fail.
				u0 := cc.NewAIMD(cc.Config{MSS: cmss, InitWindow: 2 * tc.w0})
				u1 := cc.NewAIMD(cc.Config{MSS: cmss, InitWindow: 2 * tc.w1})
				u0.OnLoss(0)
				u1.OnLoss(0)
				now = 0
				for i := 0; i < 2000; i++ {
					now += us(25)
					u := u1
					if i%5 < r0 {
						u = u0
					}
					u.OnAck(now, cc.Signal{AckedBytes: cmss, RTT: rtt})
				}
				uncoupled := u0.Window() + u1.Window() - (tc.w0 + tc.w1)
				if uncoupled < 1.5*singleGrowth {
					t.Fatalf("uncoupled pair grew %.0f vs single %.0f — bottleneck model lost its teeth", uncoupled, singleGrowth)
				}
			})
		}
	}
}

// TestOLIAShiftsLoad pins OLIA's defining behavior over LIA: under
// asymmetric congestion (path 0 loses periodically, path 1 is clean), OLIA
// moves window capacity toward the clean path — the clean-path window must
// dominate the lossy one and hold a larger share than the lossy path
// retains.
func TestOLIAShiftsLoad(t *testing.T) {
	run := func(kind Coupling) (lossy, clean float64) {
		c := NewCoupler(kind, cc.Config{MSS: cmss}, 2)
		now := time.Duration(0)
		// Exit slow start on both paths.
		c.Sub(0).OnLoss(now)
		c.Sub(1).OnLoss(now)
		for i := 0; i < 6000; i++ {
			now += us(25)
			sub := i % 2
			// Path 0 suffers a loss every ~150 acks; path 1 never does.
			if sub == 0 && i%300 == 150 {
				c.Sub(0).OnLoss(now)
				continue
			}
			c.Sub(sub).OnAck(now, cc.Signal{AckedBytes: cmss, RTT: us(100)})
		}
		return c.Sub(0).Window(), c.Sub(1).Window()
	}
	lossy, clean := run(CouplingOLIA)
	if clean <= lossy {
		t.Fatalf("OLIA kept clean-path window %.0f <= lossy-path %.0f", clean, lossy)
	}
	if clean < 2*lossy {
		t.Fatalf("OLIA shifted weakly: clean %.0f vs lossy %.0f (want >= 2x)", clean, lossy)
	}
	// OLIA's alpha term explicitly transfers window toward the best path, so
	// it must concentrate at least as much share there as LIA does.
	liaLossy, liaClean := run(CouplingLIA)
	oliaShare := clean / (clean + lossy)
	liaShare := liaClean / (liaClean + liaLossy)
	if oliaShare+1e-9 < liaShare {
		t.Fatalf("OLIA clean-path share %.3f below LIA's %.3f — no opportunistic shift", oliaShare, liaShare)
	}
}

// TestCoupledMPTCPTransfer runs LIA and OLIA end to end through the two-path
// simulator topology: the stream completes, both paths carry bytes, and the
// merge stays correct.
func TestCoupledMPTCPTransfer(t *testing.T) {
	for _, kind := range []Coupling{CouplingLIA, CouplingOLIA} {
		t.Run(string(kind), func(t *testing.T) {
			eng, snd, rcv, l1, l2 := mptcpTopo(7, 10e9, 10e9)
			c1, c2 := splitConns(t)
			conns := []uint64{c1, c2}
			var doneAt time.Duration
			m := NewMPTCP(eng, snd, MPTCPConfig{
				Conns: conns, Dst: rcv.ID(), RTO: 2 * time.Millisecond,
				CCConfig:   cc.Config{MaxWindow: 256 << 10},
				Coupling:   kind,
				OnComplete: func(now time.Duration) { doneAt = now },
			})
			r := NewMPTCPReceiver(eng, rcv, snd.ID(), conns)
			snd.SetHandler(func(pkt *simnet.Packet) {
				for _, s := range m.Subflows() {
					s.OnPacket(pkt)
				}
			})
			rcv.SetHandler(r.OnPacket)
			total := int64(8 << 20)
			m.Write(int(total))
			eng.Run(20 * time.Millisecond)
			if r.Contiguous() != total {
				t.Fatalf("delivered %d of %d", r.Contiguous(), total)
			}
			if doneAt == 0 {
				t.Fatal("OnComplete never fired")
			}
			if m.AckedGlobal() != total {
				t.Fatalf("acked global prefix %d of %d", m.AckedGlobal(), total)
			}
			if l1.Stats().TxBytes == 0 || l2.Stats().TxBytes == 0 {
				t.Fatal("one path idle under coupled CC")
			}
		})
	}
}

// TestSchedulerChoiceDeterminism runs MPTCP's max-free striping twice on
// the same asymmetric two-path topology and requires byte-identical behavior
// between runs (the conformance property repro seeds depend on), with both
// paths carrying data.
func TestSchedulerChoiceDeterminism(t *testing.T) {
	type outcome struct {
		sent0, sent1 uint64
		acked        int64
		fingerprint  string
	}
	run := func() outcome {
		eng, snd, rcv, _, _ := mptcpTopo(11, 10e9, 10e9)
		c1, c2 := splitConns(t)
		conns := []uint64{c1, c2}
		m := NewMPTCP(eng, snd, MPTCPConfig{
			Conns: conns, Dst: rcv.ID(), RTO: 2 * time.Millisecond,
			CCConfig: cc.Config{MaxWindow: 256 << 10},
		})
		r := NewMPTCPReceiver(eng, rcv, snd.ID(), conns)
		snd.SetHandler(func(pkt *simnet.Packet) {
			for _, s := range m.Subflows() {
				s.OnPacket(pkt)
			}
		})
		rcv.SetHandler(r.OnPacket)
		m.Write(8 << 20)
		eng.Run(10 * time.Millisecond)
		s0, s1 := m.Subflows()[0], m.Subflows()[1]
		return outcome{
			sent0: s0.SegsSent, sent1: s1.SegsSent,
			acked: r.Contiguous(),
			fingerprint: fmt.Sprintf("%d/%d/%d/%d/%d",
				s0.SegsSent, s1.SegsSent, s0.SegsRetx, s1.SegsRetx, r.Contiguous()),
		}
	}
	t.Run("maxfree", func(t *testing.T) {
		a := run()
		b := run()
		if a.fingerprint != b.fingerprint {
			t.Fatalf("max-free striping nondeterministic: %s vs %s", a.fingerprint, b.fingerprint)
		}
		if a.acked == 0 {
			t.Fatal("max-free striping delivered nothing")
		}
		if a.sent0 == 0 || a.sent1 == 0 {
			t.Fatalf("max-free striping left a path idle: %d/%d segments", a.sent0, a.sent1)
		}
	})
}
