package cc

import "time"

// Swift's delay-based parameters.
const (
	// swiftTarget is the fabric queueing-delay target.
	swiftTarget = 25 * time.Microsecond
	// swiftAI is the additive-increase step in MSS per RTT.
	swiftAI = 1
	// swiftBeta scales the decrease fraction by the delay excess.
	swiftBeta = 0.8
	// swiftMaxMDF caps the per-event decrease fraction.
	swiftMaxMDF = 0.5
)

// Swift implements a Swift-style delay-based algorithm (Kumar et al.,
// SIGCOMM'20, simplified): the window grows additively while measured delay
// is below target and shrinks multiplicatively in proportion to how far the
// delay exceeds the target, with at most one decrease per RTT.
type Swift struct {
	cfg Config

	cwnd    float64
	srtt    time.Duration
	lastCut time.Duration
	hasCut  bool
}

// NewSwift returns a delay-based algorithm.
func NewSwift(cfg Config) *Swift {
	cfg = cfg.withDefaults()
	return &Swift{cfg: cfg, cwnd: cfg.InitWindow}
}

// Name implements Algorithm.
func (s *Swift) Name() string { return string(KindSwift) }

// Window implements Algorithm.
func (s *Swift) Window() float64 { return s.cwnd }

// Rate implements Algorithm: Swift is window based.
func (s *Swift) Rate() (float64, bool) { return 0, false }

// OnAck implements Algorithm.
func (s *Swift) OnAck(now time.Duration, sig Signal) {
	if sig.RTT > 0 {
		s.updateRTT(sig.RTT)
	}
	delay := sig.Delay
	if !sig.HasDelay {
		// Without delay feedback from the pathlet the delay counts as zero:
		// the window only grows additively and shrinks on loss. RTT
		// inflation is not used as a stand-in.
		delay = 0
	}
	if delay <= swiftTarget {
		// Additive increase, scaled by acked bytes over the window.
		if s.cwnd > 0 {
			inc := swiftAI * float64(s.cfg.MSS) * float64(sig.AckedBytes) / s.cwnd
			s.cwnd = s.cfg.clamp(s.cwnd + inc)
		}
		return
	}
	// Multiplicative decrease proportional to delay excess, capped, at most
	// once per RTT.
	if s.hasCut && now-s.lastCut < s.rtt() {
		return
	}
	s.hasCut = true
	s.lastCut = now
	excess := float64(delay-swiftTarget) / float64(delay)
	mdf := min(swiftBeta*excess, swiftMaxMDF)
	s.cwnd = s.cfg.clamp(s.cwnd * (1 - mdf))
}

// OnLoss implements Algorithm.
func (s *Swift) OnLoss(now time.Duration) {
	if s.hasCut && now-s.lastCut < s.rtt() {
		return
	}
	s.hasCut = true
	s.lastCut = now
	s.cwnd = s.cfg.clamp(s.cwnd * (1 - swiftMaxMDF))
}

func (s *Swift) updateRTT(sample time.Duration) {
	if s.srtt == 0 {
		s.srtt = sample
		return
	}
	s.srtt = (7*s.srtt + sample) / 8
}

func (s *Swift) rtt() time.Duration {
	if s.srtt == 0 {
		return 100 * time.Microsecond
	}
	return s.srtt
}
