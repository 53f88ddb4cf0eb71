// Package cc implements the pluggable congestion-control algorithms used for
// pathlet congestion control. MTP end-hosts keep one Algorithm instance per
// (pathlet, traffic class) pair; the network chooses which feedback type each
// pathlet emits, so algorithms with different feedback (ECN fractions for
// DCTCP, explicit rates for RCP, delay for Swift) coexist on one connection —
// the paper's multi-resource, multi-algorithm requirement.
//
// Algorithms are pure state machines over (time, signal) inputs; they know
// nothing about packets or the simulator, which lets the same code run under
// virtual time in experiments and wall-clock time in the public mtp package.
package cc

import (
	"fmt"
	"time"
)

// Signal summarizes the congestion feedback for one pathlet extracted from
// one acknowledgement.
type Signal struct {
	// AckedBytes is the number of payload bytes newly acknowledged.
	AckedBytes int
	// ECN reports whether the pathlet marked congestion-experienced.
	ECN bool
	// HasRate/RateBps carry an explicit rate (RCP-style) if present.
	HasRate bool
	RateBps float64
	// HasDelay/Delay carry a measured queueing delay (Swift-style).
	HasDelay bool
	Delay    time.Duration
	// RTT is one round-trip-time sample, or zero when the acknowledgement
	// yields none; the algorithm smooths it itself (Gate). MTP's endpoint
	// passes the largest sample among the packets this acknowledgement
	// newly covers, retransmissions excluded; the TCP-like rivals in
	// internal/baseline pass their own smoothed RTT, so their algorithm
	// smooths it a second time.
	RTT time.Duration
}

// Algorithm is one congestion-control state machine for one pathlet.
type Algorithm interface {
	// Name identifies the algorithm (e.g. "dctcp").
	Name() string
	// OnAck feeds one acknowledgement's signal for this pathlet.
	OnAck(now time.Duration, s Signal)
	// OnLoss reports a retransmission timeout or inferred loss.
	OnLoss(now time.Duration)
	// Window returns the allowed bytes in flight on this pathlet.
	Window() float64
	// Rate returns an explicit pacing rate in bits/s when the algorithm is
	// rate-based; ok is false for pure window-based algorithms.
	Rate() (bps float64, ok bool)
}

// Config carries the parameters shared by all algorithms.
type Config struct {
	// MSS is the maximum payload bytes per packet.
	MSS int
	// InitWindow is the initial congestion window in bytes. Defaults to
	// 10*MSS when zero.
	InitWindow float64
	// MaxWindow caps the window. Defaults to unbounded (0).
	MaxWindow float64
	// LineRate is the sender's NIC rate in bits/s, used by rate-based
	// algorithms as their starting/ceiling rate (DCQCN). Zero leaves the
	// per-algorithm default.
	LineRate float64
}

func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = 1460
	}
	if c.InitWindow <= 0 {
		c.InitWindow = 10 * float64(c.MSS)
	}
	return c
}

// Normalized returns the config with defaults applied — the effective
// bounds an algorithm built from c enforces: a floor of one MSS and a cap
// of MaxWindow. Exposed for the invariant checker (internal/check) and
// bound-asserting tests.
func (c Config) Normalized() Config { return c.withDefaults() }

// Clamp bounds a window to [one MSS, MaxWindow] (no cap when MaxWindow is 0).
func (c Config) Clamp(w float64) float64 {
	if w < float64(c.MSS) {
		w = float64(c.MSS)
	}
	if c.MaxWindow > 0 && w > c.MaxWindow {
		w = c.MaxWindow
	}
	return w
}

// Kind names a congestion-control algorithm for factory construction.
type Kind string

// Supported algorithm kinds.
const (
	KindAIMD  Kind = "aimd"
	KindDCTCP Kind = "dctcp"
	KindRCP   Kind = "rcp"
	KindSwift Kind = "swift"
	KindDCQCN Kind = "dcqcn"
)

// New constructs an algorithm of the given kind with shared config and
// per-kind defaults.
func New(kind Kind, cfg Config) (Algorithm, error) {
	switch kind {
	case KindAIMD:
		return NewAIMD(cfg), nil
	case KindDCTCP:
		return NewDCTCP(cfg), nil
	case KindRCP:
		return NewRCP(cfg), nil
	case KindSwift:
		return NewSwift(cfg), nil
	case KindDCQCN:
		return NewDCQCN(cfg), nil
	default:
		return nil, fmt.Errorf("cc: unknown algorithm kind %q", kind)
	}
}
