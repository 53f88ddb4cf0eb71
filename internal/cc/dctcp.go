package cc

import "time"

// DCTCP implements the Data Center TCP window algorithm (Alizadeh et al.,
// SIGCOMM'10): the sender maintains an EWMA alpha of the fraction of ECN
// marked bytes per window and scales the window by (1 - alpha/2) once per
// window of data when marks were observed, instead of Reno's blind halving.
// A loss halves the window as Reno does.
type DCTCP struct {
	window
	alpha float64

	// Per-observation-window mark accounting.
	ackedBytes  int
	markedBytes int
	windowEnd   time.Duration
}

// dctcpG is the EWMA gain for alpha (the paper's g = 1/16).
const dctcpG = 1.0 / 16.0

// NewDCTCP returns a DCTCP algorithm with alpha initialized to 1
// (conservative start, as in the paper).
func NewDCTCP(cfg Config) *DCTCP {
	return &DCTCP{window: newWindow(cfg, 1<<30), alpha: 1}
}

// Name implements Algorithm.
func (d *DCTCP) Name() string { return string(KindDCTCP) }

// OnAck implements Algorithm.
func (d *DCTCP) OnAck(now time.Duration, s Signal) {
	d.gate.Observe(s.RTT)
	d.ackedBytes += s.AckedBytes
	if s.ECN {
		d.markedBytes += s.AckedBytes
	}

	// Close the observation window roughly once per RTT (the paper uses
	// "approximately one window of data").
	if d.windowEnd == 0 {
		d.windowEnd = now + d.gate.RTT()
	}
	if now >= d.windowEnd && d.ackedBytes > 0 {
		f := float64(d.markedBytes) / float64(d.ackedBytes)
		d.alpha = (1-dctcpG)*d.alpha + dctcpG*f
		if d.markedBytes > 0 {
			d.decrease(now, 1-d.alpha/2)
		}
		d.ackedBytes, d.markedBytes = 0, 0
		d.windowEnd = now + d.gate.RTT()
	}

	if s.ECN {
		// Marks also terminate slow start immediately.
		if d.cwnd < d.ssthresh {
			d.ssthresh = d.cwnd
		}
		return
	}
	d.grow(s.AckedBytes)
}
