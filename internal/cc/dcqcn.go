package cc

import "time"

// DCQCN's parameters.
const (
	// dcqcnLineRate is the starting and ceiling rate (bits/s) when
	// Config.LineRate is zero; DCQCN starts at full speed.
	dcqcnLineRate = 10e9
	// dcqcnG is the alpha EWMA gain.
	dcqcnG = 1.0 / 16.0
	// dcqcnRateAI is the additive-increase step in bits/s.
	dcqcnRateAI = 40e6
	// dcqcnPeriod is the rate-update interval (the paper's 55 µs timer).
	dcqcnPeriod = 55 * time.Microsecond
	// dcqcnMinRate floors the sending rate (bits/s).
	dcqcnMinRate = 10e6
)

// DCQCN implements a simplified DCQCN rate controller (Zhu et al.,
// SIGCOMM'15): the sender starts at line rate; ECN marks drive an alpha
// EWMA and a multiplicative rate decrease (remembering the pre-decrease
// rate as the target); recovery halves the distance back to the target for
// several periods (fast recovery), then raises the target additively
// (additive increase). Section 4 of the MTP paper names DCQCN as one of the
// algorithms MTP can express on a pathlet.
type DCQCN struct {
	cfg      Config
	lineRate float64 // bps

	alpha float64
	rc    float64 // current rate (bps)
	rt    float64 // target rate (bps)

	lastDecrease time.Duration
	lastIncrease time.Duration
	lastAlphaUpd time.Duration
	recoveries   int // fast-recovery stages since last decrease

	gate Gate
}

// NewDCQCN returns a DCQCN controller.
func NewDCQCN(cfg Config) *DCQCN {
	line := cfg.LineRate
	if line <= 0 {
		line = dcqcnLineRate
	}
	return &DCQCN{
		cfg:      cfg.withDefaults(),
		lineRate: line,
		alpha:    1,
		rc:       line,
		rt:       line,
	}
}

// Name implements Algorithm.
func (d *DCQCN) Name() string { return string(KindDCQCN) }

// Rate implements Algorithm: DCQCN is rate based.
func (d *DCQCN) Rate() (float64, bool) { return d.rc, true }

// Window implements Algorithm: the rate's backstop window on top of pacing.
func (d *DCQCN) Window() float64 { return d.cfg.backstop(d.rc, d.gate.RTT()) }

// OnAck implements Algorithm.
func (d *DCQCN) OnAck(now time.Duration, s Signal) {
	d.gate.Observe(s.RTT)
	if s.ECN {
		// Alpha rises and the rate cuts, at most once per period.
		if now-d.lastAlphaUpd >= dcqcnPeriod {
			d.lastAlphaUpd = now
			d.alpha = (1-dcqcnG)*d.alpha + dcqcnG
		}
		if now-d.lastDecrease >= dcqcnPeriod {
			d.lastDecrease = now
			d.rt = d.rc
			d.rc = d.floor(d.rc * (1 - d.alpha/2))
			d.recoveries = 0
			d.lastIncrease = now
		}
		return
	}
	// No mark: alpha decays once per period, and the rate recovers.
	if now-d.lastAlphaUpd >= dcqcnPeriod {
		d.lastAlphaUpd = now
		d.alpha *= 1 - dcqcnG
	}
	if now-d.lastIncrease >= dcqcnPeriod {
		d.lastIncrease = now
		d.recoveries++
		switch {
		case d.recoveries <= 5:
			// Fast recovery: halve the distance to the target.
		case d.recoveries <= 10:
			// Additive increase: raise the target.
			d.rt += dcqcnRateAI
		default:
			// Hyper increase: the network has been clean for many periods;
			// probe aggressively (the original algorithm's HAI stage).
			d.rt += dcqcnRateAI * 10 * float64(d.recoveries-10)
		}
		if d.rt > d.lineRate {
			d.rt = d.lineRate
		}
		d.rc = d.cap((d.rc + d.rt) / 2)
	}
}

// OnLoss implements Algorithm: treat like a hard mark.
func (d *DCQCN) OnLoss(now time.Duration) {
	if now-d.lastDecrease < dcqcnPeriod {
		return
	}
	d.lastDecrease = now
	d.rt = d.rc
	d.rc = d.floor(d.rc / 2)
	d.recoveries = 0
	d.lastIncrease = now
}

func (d *DCQCN) floor(r float64) float64 {
	if r < dcqcnMinRate {
		return dcqcnMinRate
	}
	return r
}

func (d *DCQCN) cap(r float64) float64 {
	if r > d.lineRate {
		return d.lineRate
	}
	return d.floor(r)
}
