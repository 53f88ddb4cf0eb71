package cc

import "time"

// Gate smooths an algorithm's RTT samples and rations its decreases: at most
// one per smoothed RTT, so a burst of marks or losses from one congested
// window counts as a single event.
type Gate struct {
	srtt    time.Duration
	lastCut time.Duration // time of the last granted decrease
	hasCut  bool
}

// Observe folds one RTT sample into the smoothed RTT with gain 1/8; the
// first sample is taken whole and non-positive samples are ignored.
func (g *Gate) Observe(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if g.srtt == 0 {
		g.srtt = sample
		return
	}
	g.srtt = (7*g.srtt + sample) / 8
}

// RTT returns the smoothed RTT, or 100 µs before any sample.
func (g *Gate) RTT() time.Duration {
	if g.srtt == 0 {
		return 100 * time.Microsecond
	}
	return g.srtt
}

// Cut reports whether a decrease may happen at now and, if so, records it:
// it grants at most one decrease per smoothed RTT.
func (g *Gate) Cut(now time.Duration) bool {
	if g.hasCut && now-g.lastCut < g.RTT() {
		return false
	}
	g.hasCut = true
	g.lastCut = now
	return true
}

// window is the congestion window the window-based algorithms share: slow
// start up to ssthresh, then Reno's increase of one MSS per window of acked
// bytes, and multiplicative decreases rationed by a Gate. The algorithms
// differ only in when they grow and by what factor they cut.
type window struct {
	cfg      Config
	cwnd     float64
	ssthresh float64
	gate     Gate
}

func newWindow(cfg Config, ssthresh float64) window {
	cfg = cfg.withDefaults()
	return window{cfg: cfg, cwnd: cfg.InitWindow, ssthresh: ssthresh}
}

// Window implements Algorithm.
func (w *window) Window() float64 { return w.cwnd }

// Rate implements Algorithm: window algorithms do not pace.
func (w *window) Rate() (float64, bool) { return 0, false }

// OnLoss implements Algorithm: halve the window.
func (w *window) OnLoss(now time.Duration) { w.decrease(now, 0.5) }

// grow applies acked bytes: the window grows by them in slow start and by
// MSS·acked/cwnd afterwards.
func (w *window) grow(acked int) {
	inc := float64(acked)
	if w.cwnd >= w.ssthresh {
		inc = float64(w.cfg.MSS) * inc / w.cwnd
	}
	w.cwnd = w.cfg.Clamp(w.cwnd + inc)
}

// decrease scales the window by f, if the gate grants a cut at now, and
// ends slow start there.
func (w *window) decrease(now time.Duration, f float64) {
	if !w.gate.Cut(now) {
		return
	}
	w.cwnd = w.cfg.Clamp(w.cwnd * f)
	w.ssthresh = w.cwnd
}

// backstop is a rate-based algorithm's window. Rate-based senders are paced
// by Rate; the window only guards against feedback loss, so it carries 2×
// the bandwidth-delay product plus slack rather than the exact BDP (which
// would double-limit a paced sender on every RTT jitter).
func (c Config) backstop(bps float64, rtt time.Duration) float64 {
	return c.Clamp(2*bps/8*rtt.Seconds() + 4*float64(c.MSS))
}
