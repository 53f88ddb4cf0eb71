// Package exp implements one harness per table/figure of the paper's
// evaluation (Section 2.3's Figures 2-3 and Section 5's Figures 5-7, plus
// the Table 1 feature matrix). Each harness builds the paper's topology on
// the discrete-event simulator, runs the paper's workload for each system,
// and returns the same rows/series the paper plots.
package exp

import (
	"fmt"
	"strings"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/cc"
	"mtp/internal/core"
	"mtp/internal/simnet"
	"mtp/internal/stats"
)

// Fig5Config parameterizes the multipath congestion-control experiment:
// a fast and a slow path between one sender and one receiver (the paper's
// two-path numbers, see twopath.go), with the first-hop switch alternating
// between them on a fixed period (an optical switch).
type Fig5Config struct {
	SwitchPeriod time.Duration // 384 µs
	Duration     time.Duration // 20 ms
	Seed         int64
	// SinglePathlet runs the MTP ablation where the whole network is one
	// pathlet (mimicking TCP): both links stamp the same pathlet ID.
	SinglePathlet bool
	// MTPCC selects the per-pathlet algorithm for the MTP run (default
	// DCTCP). Any cc.Kind works — the multi-algorithm property.
	MTPCC cc.Kind
	// LineRate informs rate-based algorithms of the NIC speed (bits/s);
	// zero uses the fast path's rate.
	LineRate float64
}

// fig5SampleInterval is the paper's "measure the flow throughput every 32 µs".
const fig5SampleInterval = 32 * time.Microsecond

func (c Fig5Config) withDefaults() Fig5Config {
	if c.SwitchPeriod == 0 {
		c.SwitchPeriod = 384 * time.Microsecond
	}
	if c.Duration == 0 {
		c.Duration = 20 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LineRate == 0 {
		c.LineRate = paperFastRate
	}
	return c
}

// Fig5Series is one system's measured throughput trace.
type Fig5Series struct {
	Name     string
	Gbps     []float64
	MeanGbps float64
}

// Fig5Result holds both traces and the headline comparison.
type Fig5Result struct {
	Config      Fig5Config
	MTP         Fig5Series
	DCTCP       Fig5Series
	Improvement float64 // MTP mean / DCTCP mean - 1
}

// RunFig5 executes the experiment for both systems.
func RunFig5(cfg Fig5Config) Fig5Result {
	cfg = cfg.withDefaults()
	res := Fig5Result{Config: cfg}
	// Both systems run behind the alternating (optical) switch.
	optical := simnet.Alternator{Period: cfg.SwitchPeriod}

	// --- MTP run: per-pathlet congestion control ---
	{
		pathlets := 2
		if cfg.SinglePathlet {
			pathlets = 1
		}
		_, series := paperTwoPath(cfg.Seed, optical, pathlets).runMTP(core.Config{
			RTO: 2 * time.Millisecond, CC: cfg.MTPCC,
			CCConfig: cc.Config{MaxWindow: paperMaxWindow, LineRate: cfg.LineRate},
		}, nil, fig5SampleInterval, cfg.Duration)
		res.MTP = summarizeFig5("MTP", series.Gbps)
	}

	// --- DCTCP run: one window for the whole network ---
	{
		rig := paperTwoPath(cfg.Seed, optical, 0)
		dctcp := baseline.MustRival("") // the default rival
		w := dctcp.Wire(rig.eng, rig, baseline.WireConfig{
			RTO: 2 * time.Millisecond, CCConfig: cc.Config{MaxWindow: paperMaxWindow},
		})
		stream := baseline.Msg{Src: 0, Dst: 1, Size: 1 << 32, ID: 1} // effectively infinite
		series := sampleBytes(rig.eng, fig5SampleInterval, cfg.Duration, w.Expect(stream))
		w.Start(stream, func(time.Duration, uint64) {})
		rig.eng.Run(cfg.Duration)
		res.DCTCP = summarizeFig5(dctcp.Short, series.Gbps)
	}

	if res.DCTCP.MeanGbps > 0 {
		res.Improvement = res.MTP.MeanGbps/res.DCTCP.MeanGbps - 1
	}
	return res
}

// summarizeFig5 averages the whole trace, start-up included: there is no
// warm-up skip, and bench/golden/fig5.json pins the means as computed.
func summarizeFig5(name string, series []float64) Fig5Series {
	s := stats.Summarize(series)
	return Fig5Series{Name: name, Gbps: series, MeanGbps: s.Mean}
}

// Fig5SweepPoint is one period's outcome in the sweep.
type Fig5SweepPoint struct {
	Period      time.Duration
	DCTCPGbps   float64
	MTPGbps     float64
	Improvement float64
}

// RunFig5PeriodSweep varies the path-alternation period: the faster the
// network re-balances, the more a single-window transport loses and the
// larger MTP's advantage — the sensitivity analysis behind Figure 5. All
// points share seed, so one sweep is reproducible end to end; workers only
// controls fan-out (see Sweep).
func RunFig5PeriodSweep(workers int, periods []time.Duration, duration time.Duration, seed int64) []Fig5SweepPoint {
	if len(periods) == 0 {
		periods = []time.Duration{
			48 * time.Microsecond, 96 * time.Microsecond, 192 * time.Microsecond,
			384 * time.Microsecond, 768 * time.Microsecond, 1536 * time.Microsecond,
		}
	}
	return Sweep(workers, periods, func(p time.Duration) Fig5SweepPoint {
		r := RunFig5(Fig5Config{SwitchPeriod: p, Duration: duration, Seed: seed})
		return Fig5SweepPoint{
			Period:      p,
			DCTCPGbps:   r.DCTCP.MeanGbps,
			MTPGbps:     r.MTP.MeanGbps,
			Improvement: r.Improvement,
		}
	})
}

// Fig5CCPoint is one congestion-control algorithm's outcome in the Figure 5
// scenario.
type Fig5CCPoint struct {
	CC      cc.Kind
	MTPGbps float64
}

// RunFig5CCSweep runs the Figure 5 scenario with each congestion-control
// algorithm on MTP's pathlets: the multi-algorithm property means the
// transport does not care which controller a pathlet runs.
func RunFig5CCSweep(workers int, kinds []cc.Kind, duration time.Duration, seed int64) []Fig5CCPoint {
	if len(kinds) == 0 {
		kinds = []cc.Kind{cc.KindDCTCP, cc.KindAIMD, cc.KindSwift, cc.KindDCQCN}
	}
	return Sweep(workers, kinds, func(k cc.Kind) Fig5CCPoint {
		r := RunFig5(Fig5Config{Duration: duration, MTPCC: k, LineRate: 100e9, Seed: seed})
		return Fig5CCPoint{CC: k, MTPGbps: r.MTP.MeanGbps}
	})
}

// CCSweepString renders the CC sweep as a table.
func CCSweepString(points []Fig5CCPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 CC sweep: MTP goodput per pathlet algorithm\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  %-8s %7.1f Gbps\n", p.CC, p.MTPGbps)
	}
	return b.String()
}

// SweepString renders the sweep as a table.
func SweepString(points []Fig5SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 sweep: MTP advantage vs path-alternation period\n")
	fmt.Fprintf(&b, "  %-10s %12s %12s %12s\n", "period", "DCTCP Gbps", "MTP Gbps", "improvement")
	for _, p := range points {
		fmt.Fprintf(&b, "  %-10v %12.1f %12.1f %+11.0f%%\n", p.Period, p.DCTCPGbps, p.MTPGbps, p.Improvement*100)
	}
	return b.String()
}

// String renders the figure as text: mean goodputs and the improvement.
func (r Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: multipath congestion control (paths %s/%s alternating every %v)\n",
		gbpsStr(paperFastRate), gbpsStr(paperSlowRate), r.Config.SwitchPeriod)
	fmt.Fprintf(&b, "  %-6s mean goodput %7.2f Gbps\n", r.DCTCP.Name, r.DCTCP.MeanGbps)
	fmt.Fprintf(&b, "  %-6s mean goodput %7.2f Gbps\n", r.MTP.Name, r.MTP.MeanGbps)
	fmt.Fprintf(&b, "  MTP improvement: %+.0f%% (paper reports ~33%%)\n", r.Improvement*100)
	return b.String()
}

// Samples renders the two series side by side for plotting.
func (r Fig5Result) Samples() string {
	return samplesTable(r.DCTCP.Name, fig5SampleInterval, r.DCTCP.Gbps, r.MTP.Gbps)
}

func gbpsStr(bps float64) string {
	return fmt.Sprintf("%.0fG", bps/1e9)
}
