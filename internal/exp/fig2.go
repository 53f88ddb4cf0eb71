package exp

import (
	"fmt"
	"strings"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/simnet"
)

// Fig2Config parameterizes the TCP-termination trade-off experiment: a
// proxy with a 100 Gbps link from the client and a 40 Gbps link to the
// server terminates the client's connection and relays it. With an
// unlimited receive window the proxy buffer grows without bound; with a
// limited window the buffer is bounded but the client is head-of-line
// blocked down to the server-side drain rate.
type Fig2Config struct {
	Duration time.Duration // default 5 ms
	Seed     int64
}

const (
	fig2ClientRate  = 100e9                // bits/s
	fig2ServerRate  = 40e9                 // bits/s
	fig2Delay       = 5 * time.Microsecond // per link
	fig2Window      = 256 << 10            // the limited regime's window, bytes
	fig2SampleEvery = 100 * time.Microsecond
)

func (c Fig2Config) withDefaults() Fig2Config {
	if c.Duration == 0 {
		c.Duration = 5 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig2Row summarizes one regime.
type Fig2Row struct {
	Regime string
	// OccupancySeries is proxy buffer occupancy in bytes per sample.
	OccupancySeries []int64
	// FinalOccupancy and PeakOccupancy in bytes.
	FinalOccupancy, PeakOccupancy int64
	// ClientGbps is the client's achieved rate; SinkGbps the delivery rate.
	ClientGbps, SinkGbps float64
}

// Fig2Result holds both regimes.
type Fig2Result struct {
	Config Fig2Config
	Rows   []Fig2Row
}

// RunFig2 runs the unlimited- and limited-window regimes.
func RunFig2(cfg Fig2Config) Fig2Result {
	cfg = cfg.withDefaults()
	return Fig2Result{Config: cfg, Rows: []Fig2Row{
		runFig2(cfg, 0),
		runFig2(cfg, fig2Window),
	}}
}

func runFig2(cfg Fig2Config, window int64) Fig2Row {
	rig := newRig(cfg.Seed)
	// In the unlimited regime the proxy's memory is unbounded. In the
	// limited regime both halves are bounded: the receive window advertised
	// to the client and the send buffer toward the server, as in a real
	// proxy with fixed socket buffers.
	sendBuf := int64(1) << 40
	if window > 0 {
		sendBuf = window
	}
	p, snd, sinkRcv := rig.proxyRelay(
		simnet.LinkConfig{Rate: fig2ClientRate, Delay: fig2Delay, QueueCap: 4096},
		simnet.LinkConfig{Rate: fig2ServerRate, Delay: fig2Delay, QueueCap: 4096},
		baseline.ProxyConfig{ReceiveWindow: window, SendBuffer: sendBuf, RTO: 2 * time.Millisecond})
	snd.Write(1 << 34)

	row := Fig2Row{Regime: "unlimited window"}
	if window > 0 {
		row.Regime = fmt.Sprintf("window=%dKB", window>>10)
	}
	var tick func()
	tick = func() {
		occ := p.Occupancy()
		row.OccupancySeries = append(row.OccupancySeries, occ)
		if occ > row.PeakOccupancy {
			row.PeakOccupancy = occ
		}
		if rig.eng.Now()+fig2SampleEvery <= cfg.Duration {
			rig.eng.Schedule(fig2SampleEvery, tick)
		}
	}
	rig.eng.Schedule(fig2SampleEvery, tick)
	rig.eng.Run(cfg.Duration)

	row.FinalOccupancy = p.Occupancy()
	row.ClientGbps = float64(snd.Acked()) * 8 / cfg.Duration.Seconds() / 1e9
	row.SinkGbps = float64(sinkRcv.Delivered()) * 8 / cfg.Duration.Seconds() / 1e9
	return row
}

// String renders the figure.
func (r Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: TCP termination proxy (%s client link, %s server link)\n",
		gbpsStr(fig2ClientRate), gbpsStr(fig2ServerRate))
	fmt.Fprintf(&b, "  %-20s %14s %14s %12s %12s\n", "regime", "peak buf(KB)", "final buf(KB)", "client Gbps", "sink Gbps")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-20s %14d %14d %12.1f %12.1f\n",
			row.Regime, row.PeakOccupancy>>10, row.FinalOccupancy>>10, row.ClientGbps, row.SinkGbps)
	}
	return b.String()
}
