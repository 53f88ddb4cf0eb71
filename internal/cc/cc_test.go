package cc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

const mss = 1460

func cfg() Config { return Config{MSS: mss} }

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestFactory(t *testing.T) {
	for _, k := range []Kind{KindAIMD, KindDCTCP, KindRCP, KindSwift} {
		a, err := New(k, cfg())
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if a.Name() != string(k) {
			t.Fatalf("Name = %q, want %q", a.Name(), k)
		}
		if a.Window() <= 0 {
			t.Fatalf("%s initial window = %v", k, a.Window())
		}
	}
	if _, err := New("bogus", cfg()); err == nil {
		t.Fatal("New(bogus) succeeded")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MSS != 1460 || c.InitWindow != 14600 {
		t.Fatalf("defaults = %+v", c)
	}
	if got := c.Clamp(-5); got != 1460 {
		t.Fatalf("Clamp(-5) = %v", got)
	}
	c.MaxWindow = 10000
	if got := c.Clamp(1e12); got != 10000 {
		t.Fatalf("Clamp(1e12) = %v", got)
	}
}

func TestAIMDSlowStartDoubles(t *testing.T) {
	a := NewAIMD(cfg())
	w0 := a.Window()
	// ACK one full window without marks: slow start should double it.
	now := us(100)
	acked := 0
	for acked < int(w0) {
		a.OnAck(now, Signal{AckedBytes: mss, RTT: us(100)})
		acked += mss
		now += us(1)
	}
	if a.Window() < 2*w0*0.95 {
		t.Fatalf("slow start window = %v, want ~%v", a.Window(), 2*w0)
	}
}

func TestAIMDHalvesOnceAndFloors(t *testing.T) {
	a := NewAIMD(cfg())
	a.cwnd = 100 * mss
	now := us(1000)
	a.OnAck(now, Signal{AckedBytes: mss, ECN: true, RTT: us(100)})
	if got := a.Window(); got != 50*mss {
		t.Fatalf("after mark window = %v, want %v", got, 50*mss)
	}
	// A second mark inside the same RTT must not halve again.
	a.OnAck(now+us(10), Signal{AckedBytes: mss, ECN: true, RTT: us(100)})
	if got := a.Window(); got != 50*mss {
		t.Fatalf("double halving within RTT: %v", got)
	}
	// After an RTT, a new mark halves again.
	a.OnAck(now+us(300), Signal{AckedBytes: mss, ECN: true, RTT: us(100)})
	if got := a.Window(); got != 25*mss {
		t.Fatalf("after second mark window = %v, want %v", got, 25*mss)
	}
	// Repeated losses can never go below one MSS.
	for i := 0; i < 100; i++ {
		a.OnLoss(now + us(1000*(i+1)))
	}
	if got := a.Window(); got != mss {
		t.Fatalf("floor = %v, want %v", got, mss)
	}
}

func TestAIMDCongestionAvoidanceLinear(t *testing.T) {
	a := NewAIMD(cfg())
	a.cwnd = 20 * mss
	a.ssthresh = 20 * mss // force congestion avoidance
	now := us(0)
	// ACK one window's worth: cwnd should grow by ~1 MSS.
	for acked := 0; acked < 20*mss; acked += mss {
		now += us(5)
		a.OnAck(now, Signal{AckedBytes: mss, RTT: us(100)})
	}
	growth := a.Window() - 20*mss
	if growth < 0.9*mss || growth > 1.1*mss {
		t.Fatalf("CA growth per RTT = %v bytes, want ~%v", growth, mss)
	}
}

func TestDCTCPAlphaConvergesToMarkFraction(t *testing.T) {
	d := NewDCTCP(cfg())
	d.cwnd = 50 * mss
	d.ssthresh = 1 // disable slow start
	now := us(0)
	// Feed continuous 40%-marked traffic for many windows; alpha should
	// approach 0.4.
	for i := 0; i < 3000; i++ {
		now += us(12)
		d.OnAck(now, Signal{AckedBytes: mss, ECN: i%10 < 4, RTT: us(100)})
	}
	if d.alpha < 0.3 || d.alpha > 0.5 {
		t.Fatalf("alpha = %v, want ~0.4", d.alpha)
	}
}

func TestDCTCPGentlerThanReno(t *testing.T) {
	// With a low mark rate, DCTCP's window cut must be far smaller than
	// Reno's halving — the core DCTCP property.
	d := NewDCTCP(cfg())
	d.ssthresh = 1
	d.cwnd = 100 * mss
	d.alpha = 0.1
	now := us(1000)
	d.windowEnd = now // force window close on next ack
	d.ackedBytes = 9 * mss
	d.markedBytes = mss
	d.OnAck(now, Signal{AckedBytes: mss, ECN: true, RTT: us(100)})
	w := d.Window()
	if w < 90*mss {
		t.Fatalf("DCTCP cut too aggressive: %v of %v", w, 100*mss)
	}
	if w >= 100*mss {
		t.Fatalf("DCTCP did not cut at all: %v", w)
	}
}

func TestDCTCPLossHalves(t *testing.T) {
	d := NewDCTCP(cfg())
	d.cwnd = 64 * mss
	d.OnLoss(us(500))
	if got := d.Window(); got != 32*mss {
		t.Fatalf("loss window = %v, want %v", got, 32*mss)
	}
}

func TestRCPAdoptsNetworkRate(t *testing.T) {
	r := NewRCP(cfg())
	if _, ok := r.Rate(); ok {
		t.Fatal("rate available before feedback")
	}
	r.OnAck(us(100), Signal{AckedBytes: mss, HasRate: true, RateBps: 10e9, RTT: us(100)})
	bps, ok := r.Rate()
	if !ok || bps != 10e9 {
		t.Fatalf("rate = %v, %v", bps, ok)
	}
	// Smooth toward a new rate.
	for i := 0; i < 20; i++ {
		r.OnAck(us(200+i), Signal{AckedBytes: mss, HasRate: true, RateBps: 40e9, RTT: us(100)})
	}
	bps, _ = r.Rate()
	if bps < 39e9 || bps > 41e9 {
		t.Fatalf("smoothed rate = %v, want ~40e9", bps)
	}
	// Window is a backstop of 2×BDP plus slack: 2 × 40 Gbps × 100 µs = 1 MB.
	w := r.Window()
	if w < 900e3 || w > 1200e3 {
		t.Fatalf("window = %v, want ~1e6", w)
	}
	r.OnLoss(us(300))
	bps, _ = r.Rate()
	if bps < 19e9 || bps > 21e9 {
		t.Fatalf("post-loss rate = %v, want ~20e9", bps)
	}
}

func TestRCPIgnoresAcksWithoutRate(t *testing.T) {
	r := NewRCP(cfg())
	r.OnAck(us(1), Signal{AckedBytes: mss, RTT: us(100)})
	if _, ok := r.Rate(); ok {
		t.Fatal("rate appeared without rate feedback")
	}
	if r.Window() != r.cfg.InitWindow {
		t.Fatalf("window changed without feedback: %v", r.Window())
	}
}

func TestSwiftIncreasesBelowTargetDecreasesAbove(t *testing.T) {
	s := NewSwift(cfg())
	w0 := s.Window()
	now := us(0)
	for i := 0; i < 50; i++ {
		now += us(10)
		s.OnAck(now, Signal{AckedBytes: mss, HasDelay: true, Delay: us(5), RTT: us(100)})
	}
	if s.Window() <= w0 {
		t.Fatalf("window did not grow below target: %v <= %v", s.Window(), w0)
	}
	grown := s.Window()
	now += us(1000)
	s.OnAck(now, Signal{AckedBytes: mss, HasDelay: true, Delay: us(250), RTT: us(100)})
	if s.Window() >= grown {
		t.Fatalf("window did not shrink above target: %v >= %v", s.Window(), grown)
	}
	// Only one cut per RTT.
	after := s.Window()
	s.OnAck(now+us(5), Signal{AckedBytes: mss, HasDelay: true, Delay: us(250), RTT: us(100)})
	if s.Window() != after {
		t.Fatal("second cut within one RTT")
	}
}

func TestSwiftLoss(t *testing.T) {
	s := NewSwift(cfg())
	s.cwnd = 100 * mss
	s.OnLoss(us(10))
	if got := s.Window(); got != 50*mss {
		t.Fatalf("loss window = %v, want %v (a loss halves)", got, 50*mss)
	}
}

// TestQuickWindowsStayBounded: under arbitrary feedback sequences every
// algorithm keeps its window within [one MSS, MaxWindow].
func TestQuickWindowsStayBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := Config{MSS: mss, MaxWindow: 1 << 24}
		algos := []Algorithm{NewAIMD(c), NewDCTCP(c), NewRCP(c), NewSwift(c)}
		now := time.Duration(0)
		for i := 0; i < 500; i++ {
			now += time.Duration(r.Intn(50)) * time.Microsecond
			s := Signal{
				AckedBytes: r.Intn(3 * mss),
				ECN:        r.Intn(4) == 0,
				HasRate:    r.Intn(3) == 0,
				RateBps:    float64(r.Intn(100)) * 1e9,
				HasDelay:   r.Intn(3) == 0,
				Delay:      time.Duration(r.Intn(500)) * time.Microsecond,
				RTT:        time.Duration(1+r.Intn(300)) * time.Microsecond,
			}
			for _, a := range algos {
				if r.Intn(20) == 0 {
					a.OnLoss(now)
				} else {
					a.OnAck(now, s)
				}
				w := a.Window()
				if w < float64(mss) || w > float64(1<<24) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
