package cc

import "time"

// DCTCP implements the Data Center TCP window algorithm (Alizadeh et al.,
// SIGCOMM'10): the sender maintains an EWMA alpha of the fraction of ECN
// marked bytes per window and scales the window by (1 - alpha/2) once per
// window of data when marks were observed, instead of Reno's blind halving.
type DCTCP struct {
	cfg Config

	cwnd     float64
	ssthresh float64
	alpha    float64

	// Per-observation-window mark accounting.
	ackedBytes  int
	markedBytes int
	windowEnd   time.Duration
	srtt        time.Duration

	lastCut time.Duration
	hasCut  bool
}

// dctcpG is the EWMA gain for alpha (the paper's g = 1/16).
const dctcpG = 1.0 / 16.0

// NewDCTCP returns a DCTCP algorithm with alpha initialized to 1
// (conservative start, as in the paper).
func NewDCTCP(cfg Config) *DCTCP {
	cfg = cfg.withDefaults()
	return &DCTCP{
		cfg:      cfg,
		cwnd:     cfg.InitWindow,
		ssthresh: 1 << 30,
		alpha:    1,
	}
}

// Name implements Algorithm.
func (d *DCTCP) Name() string { return string(KindDCTCP) }

// Window implements Algorithm.
func (d *DCTCP) Window() float64 { return d.cwnd }

// Rate implements Algorithm: DCTCP is window based.
func (d *DCTCP) Rate() (float64, bool) { return 0, false }

// OnAck implements Algorithm.
func (d *DCTCP) OnAck(now time.Duration, s Signal) {
	if s.RTT > 0 {
		d.updateRTT(s.RTT)
	}
	d.ackedBytes += s.AckedBytes
	if s.ECN {
		d.markedBytes += s.AckedBytes
	}

	// Close the observation window roughly once per RTT (the paper uses
	// "approximately one window of data").
	if d.windowEnd == 0 {
		d.windowEnd = now + d.rtt()
	}
	if now >= d.windowEnd && d.ackedBytes > 0 {
		f := float64(d.markedBytes) / float64(d.ackedBytes)
		d.alpha = (1-dctcpG)*d.alpha + dctcpG*f
		if d.markedBytes > 0 {
			d.cutAlpha(now)
		}
		d.ackedBytes, d.markedBytes = 0, 0
		d.windowEnd = now + d.rtt()
	}

	if s.ECN {
		// Marks also terminate slow start immediately.
		if d.cwnd < d.ssthresh {
			d.ssthresh = d.cwnd
		}
		return
	}
	if d.cwnd < d.ssthresh {
		d.cwnd = d.cfg.clamp(d.cwnd + float64(s.AckedBytes))
		return
	}
	if d.cwnd > 0 {
		d.cwnd = d.cfg.clamp(d.cwnd + float64(d.cfg.MSS)*float64(s.AckedBytes)/d.cwnd)
	}
}

// OnLoss implements Algorithm: fall back to Reno-style halving.
func (d *DCTCP) OnLoss(now time.Duration) {
	if d.hasCut && now-d.lastCut < d.rtt() {
		return
	}
	d.hasCut = true
	d.lastCut = now
	d.cwnd = d.cfg.clamp(d.cwnd / 2)
	d.ssthresh = d.cwnd
}

func (d *DCTCP) cutAlpha(now time.Duration) {
	if d.hasCut && now-d.lastCut < d.rtt() {
		return
	}
	d.hasCut = true
	d.lastCut = now
	d.cwnd = d.cfg.clamp(d.cwnd * (1 - d.alpha/2))
	d.ssthresh = d.cwnd
}

func (d *DCTCP) updateRTT(sample time.Duration) {
	if d.srtt == 0 {
		d.srtt = sample
		return
	}
	d.srtt = (7*d.srtt + sample) / 8
}

func (d *DCTCP) rtt() time.Duration {
	if d.srtt == 0 {
		return 100 * time.Microsecond
	}
	return d.srtt
}
