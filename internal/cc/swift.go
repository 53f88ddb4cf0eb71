package cc

import "time"

// Swift's delay-based parameters.
const (
	// swiftTarget is the fabric queueing-delay target.
	swiftTarget = 25 * time.Microsecond
	// swiftBeta scales the decrease fraction by the delay excess.
	swiftBeta = 0.8
	// swiftMaxMDF caps the per-event decrease fraction.
	swiftMaxMDF = 0.5
)

// Swift implements a Swift-style delay-based algorithm (Kumar et al.,
// SIGCOMM'20, simplified): the window grows additively, one MSS per RTT,
// while measured delay is below target and shrinks multiplicatively in
// proportion to how far the delay exceeds the target, with at most one
// decrease per RTT. It has no slow start; a loss halves the window.
type Swift struct{ window }

// NewSwift returns a delay-based algorithm.
func NewSwift(cfg Config) *Swift { return &Swift{newWindow(cfg, 0)} }

// Name implements Algorithm.
func (s *Swift) Name() string { return string(KindSwift) }

// OnAck implements Algorithm.
func (s *Swift) OnAck(now time.Duration, sig Signal) {
	s.gate.Observe(sig.RTT)
	// Without delay feedback from the pathlet the delay counts as zero: the
	// window only grows additively and shrinks on loss. RTT inflation is not
	// used as a stand-in.
	if !sig.HasDelay || sig.Delay <= swiftTarget {
		s.grow(sig.AckedBytes)
		return
	}
	// Multiplicative decrease proportional to delay excess, capped.
	excess := float64(sig.Delay-swiftTarget) / float64(sig.Delay)
	s.decrease(now, 1-min(swiftBeta*excess, swiftMaxMDF))
}
