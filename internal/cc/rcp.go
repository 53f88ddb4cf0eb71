package cc

import "time"

// RCP implements Rate Control Protocol-style explicit-rate congestion
// control (Dukkipati, 2008): the network computes a fair share rate for the
// pathlet and stamps it into packet headers; the sender simply adopts the
// most recent rate, smoothed slightly to ride out jitter. A window is derived
// from rate*RTT so window-based senders can also use RCP pathlets.
type RCP struct {
	cfg Config

	rateBps float64
	hasRate bool
	gate    Gate
}

// NewRCP returns an explicit-rate algorithm. Until the first rate feedback
// arrives it behaves like a fixed initial window.
func NewRCP(cfg Config) *RCP {
	return &RCP{cfg: cfg.withDefaults()}
}

// rcpGain is the EWMA weight applied to fresh rate feedback.
const rcpGain = 0.5

// Name implements Algorithm.
func (r *RCP) Name() string { return string(KindRCP) }

// OnAck implements Algorithm.
func (r *RCP) OnAck(now time.Duration, s Signal) {
	r.gate.Observe(s.RTT)
	if !s.HasRate || s.RateBps <= 0 {
		return
	}
	if !r.hasRate {
		r.rateBps = s.RateBps
		r.hasRate = true
		return
	}
	r.rateBps = (1-rcpGain)*r.rateBps + rcpGain*s.RateBps
}

// OnLoss implements Algorithm: halve the rate as a safety response; the
// network feedback will restore it.
func (r *RCP) OnLoss(time.Duration) {
	if r.hasRate {
		r.rateBps /= 2
	}
}

// Window implements Algorithm: the initial window until the first rate
// feedback, then the rate's backstop window.
func (r *RCP) Window() float64 {
	if !r.hasRate {
		return r.cfg.InitWindow
	}
	return r.cfg.backstop(r.rateBps, r.gate.RTT())
}

// Rate implements Algorithm.
func (r *RCP) Rate() (float64, bool) {
	if !r.hasRate {
		return 0, false
	}
	return r.rateBps, true
}
