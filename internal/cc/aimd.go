package cc

import "time"

// AIMD is a Reno-style window algorithm: exponential slow start up to a
// threshold, additive increase of one MSS per RTT afterwards, and a
// multiplicative halving at most once per RTT on congestion (ECN mark or
// loss). It is the "TCP" point of comparison when MTP is configured with a
// single network-wide pathlet.
type AIMD struct{ window }

// NewAIMD returns a Reno-style algorithm.
func NewAIMD(cfg Config) *AIMD { return &AIMD{newWindow(cfg, 1<<30)} }

// Name implements Algorithm.
func (a *AIMD) Name() string { return string(KindAIMD) }

// OnAck implements Algorithm.
func (a *AIMD) OnAck(now time.Duration, s Signal) {
	a.gate.Observe(s.RTT)
	if s.ECN {
		a.OnLoss(now)
		return
	}
	a.grow(s.AckedBytes)
}
