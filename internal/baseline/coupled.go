package baseline

import (
	"time"

	"mtp/internal/cc"
)

// Coupling selects the coupled congestion-control algorithm that ties an
// MPTCP connection's subflow windows together. Coupling is what makes MPTCP
// safe to deploy next to single-path TCP: the subflows of one connection
// collectively take no more capacity on a shared bottleneck than one TCP
// flow would, while still shifting load toward the less congested path.
type Coupling string

const (
	// CouplingNone keeps fully independent per-subflow windows (the
	// original simplified model; as aggressive as N parallel TCP flows).
	CouplingNone Coupling = ""
	// CouplingLIA is the RFC 6356 Linked Increases Algorithm.
	CouplingLIA Coupling = "lia"
	// CouplingOLIA is the Opportunistic LIA of Khalili et al., which adds
	// explicit load-shifting terms toward the currently best paths.
	CouplingOLIA Coupling = "olia"
)

// Coupler owns the shared state of one MPTCP connection's coupled windows.
// Sub(i) hands out the per-subflow cc.Algorithm facade; each window's
// increase reads every sibling's window and RTT, which is exactly the
// coupling the RFC formulas require.
type Coupler struct {
	kind Coupling
	cfg  cc.Config
	subs []*CoupledWindow
}

// NewCoupler builds shared coupled-CC state for n subflows. cfg follows
// cc.Config semantics (defaults applied the same way).
func NewCoupler(kind Coupling, cfg cc.Config, n int) *Coupler {
	if kind != CouplingLIA && kind != CouplingOLIA {
		panic("baseline: unknown coupling " + string(kind))
	}
	c := &Coupler{kind: kind, cfg: cfg.Normalized()}
	for i := 0; i < n; i++ {
		c.subs = append(c.subs, &CoupledWindow{
			c:        c,
			idx:      i,
			cwnd:     c.cfg.InitWindow,
			ssthresh: 1 << 30,
		})
	}
	return c
}

// Sub returns subflow i's window algorithm (plugs into SenderConfig.Algo).
func (c *Coupler) Sub(i int) *CoupledWindow { return c.subs[i] }

// CoupledWindow is one subflow's view of a Coupler. It implements
// cc.Algorithm so it drops into the unmodified Sender via
// SenderConfig.Algo; slow start and multiplicative decrease stay
// per-subflow (RFC 6356 only couples the congestion-avoidance increase).
type CoupledWindow struct {
	c   *Coupler
	idx int

	cwnd     float64
	ssthresh float64
	gate     cc.Gate

	// OLIA's transmitted-bytes bookkeeping: l1 counts bytes acked since the
	// last loss on this path, l2 the bytes between the previous two losses;
	// the path-quality measure l_i is the larger of the two.
	sinceLoss float64
	prevLoss  float64
}

// Name implements cc.Algorithm.
func (w *CoupledWindow) Name() string { return "mptcp-" + string(w.c.kind) }

// Window implements cc.Algorithm.
func (w *CoupledWindow) Window() float64 { return w.cwnd }

// Rate implements cc.Algorithm: coupled windows are purely window based.
func (w *CoupledWindow) Rate() (float64, bool) { return 0, false }

// OnAck implements cc.Algorithm.
func (w *CoupledWindow) OnAck(now time.Duration, s cc.Signal) {
	w.gate.Observe(s.RTT)
	if s.ECN {
		w.cut(now)
		return
	}
	w.sinceLoss += float64(s.AckedBytes)
	if w.cwnd < w.ssthresh {
		// Slow start is uncoupled (RFC 6356 §3): the window grows by the
		// bytes acknowledged, exactly like a single-path flow.
		w.cwnd = w.c.cfg.Clamp(w.cwnd + float64(s.AckedBytes))
		return
	}
	switch w.c.kind {
	case CouplingLIA:
		w.liaIncrease(s.AckedBytes)
	case CouplingOLIA:
		w.oliaIncrease(s.AckedBytes)
	}
}

// OnLoss implements cc.Algorithm.
func (w *CoupledWindow) OnLoss(now time.Duration) { w.cut(now) }

// cut halves the window at most once per RTT (per subflow, uncoupled — RFC
// 6356 leaves the decrease untouched) and rotates OLIA's inter-loss byte
// counters.
func (w *CoupledWindow) cut(now time.Duration) {
	if !w.gate.Cut(now) {
		return
	}
	w.cwnd = w.c.cfg.Clamp(w.cwnd / 2)
	w.ssthresh = w.cwnd
	w.prevLoss = w.sinceLoss
	w.sinceLoss = 0
}

func (w *CoupledWindow) rttSeconds() float64 {
	return w.gate.RTT().Seconds()
}

// liaIncrease applies the RFC 6356 coupled increase:
//
//	inc_i = min( alpha * acked * MSS / cwnd_total,  acked * MSS / cwnd_i )
//	alpha = cwnd_total * max_j(cwnd_j/rtt_j^2) / (sum_j cwnd_j/rtt_j)^2
//
// alpha is dimensionless, so the formulas hold with windows in bytes. The
// second argument of the min is the uncoupled Reno increase: a coupled
// subflow is never more aggressive than a plain TCP flow, and on a shared
// bottleneck (equal RTTs) alpha = cwnd_max/cwnd_total <= 1, so the
// aggregate increase is bounded by a single flow's — the "do no harm"
// property the conformance tests pin.
func (w *CoupledWindow) liaIncrease(acked int) {
	var wTotal, maxTerm, denom float64
	for _, s := range w.c.subs {
		r := s.rttSeconds()
		wTotal += s.cwnd
		if t := s.cwnd / (r * r); t > maxTerm {
			maxTerm = t
		}
		denom += s.cwnd / r
	}
	if wTotal <= 0 || denom <= 0 {
		return
	}
	alpha := wTotal * maxTerm / (denom * denom)
	mss := float64(w.c.cfg.MSS)
	inc := alpha * float64(acked) * mss / wTotal
	if own := float64(acked) * mss / w.cwnd; own < inc {
		inc = own
	}
	w.cwnd = w.c.cfg.Clamp(w.cwnd + inc)
}

// oliaIncrease applies the OLIA increase (Khalili et al., CoNEXT'12):
//
//	inc_i = ( (w_i/rtt_i^2) / (sum_j w_j/rtt_j)^2  +  alpha_i / w_i ) * acked * MSS
//
// The first term is the coupled "take one flow's share" part (it reduces to
// Reno for a single path); alpha_i moves window between paths: paths in M
// (largest windows) give up capacity, paths in B\M (best measured quality
// l_i^2/rtt_i but small windows) gain it, at combined rate 1/n per ack.
func (w *CoupledWindow) oliaIncrease(acked int) {
	subs := w.c.subs
	n := float64(len(subs))
	var denom float64
	for _, s := range subs {
		denom += s.cwnd / s.rttSeconds()
	}
	if denom <= 0 || w.cwnd <= 0 {
		return
	}

	// B: paths maximizing l_i^2/rtt_i (l_i = max bytes between losses);
	// M: paths with the largest window.
	var bestQ, bestW float64
	for _, s := range subs {
		l := s.sinceLoss
		if s.prevLoss > l {
			l = s.prevLoss
		}
		if q := l * l / s.rttSeconds(); q > bestQ {
			bestQ = q
		}
		if s.cwnd > bestW {
			bestW = s.cwnd
		}
	}
	nBnotM, nM := 0, 0
	selfBnotM, selfM := false, false
	for i, s := range subs {
		l := s.sinceLoss
		if s.prevLoss > l {
			l = s.prevLoss
		}
		b := l*l/s.rttSeconds() == bestQ
		m := s.cwnd == bestW
		if b && !m {
			nBnotM++
			if i == w.idx {
				selfBnotM = true
			}
		}
		if m {
			nM++
			if i == w.idx {
				selfM = true
			}
		}
	}
	var alpha float64
	if nBnotM > 0 {
		switch {
		case selfBnotM:
			alpha = 1 / (n * float64(nBnotM))
		case selfM:
			alpha = -1 / (n * float64(nM))
		}
	}

	r := w.rttSeconds()
	mss := float64(w.c.cfg.MSS)
	inc := (w.cwnd/(r*r)/(denom*denom) + alpha/w.cwnd) * float64(acked) * mss
	w.cwnd = w.c.cfg.Clamp(w.cwnd + inc)
}
