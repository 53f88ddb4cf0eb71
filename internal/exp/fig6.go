package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mtp/internal/core"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
	"mtp/internal/stats"
	"mtp/internal/workload"
)

// Fig6Config parameterizes the load-balancer comparison: one sender, one
// receiver, two parallel 100 Gbps paths (one with extra delay), a skewed
// message-size mix, and three balancing policies — ECMP, per-packet
// spraying, and the MTP message-aware balancer.
type Fig6Config struct {
	Messages   int     // default 400
	MaxMsgSize int     // cap on the 10KB..1GB paper mix, default 32 MB
	Load       float64 // offered load vs one path, default 0.9
	Seed       int64
	Timeout    time.Duration // simulation cap, default 1 s
	// Workload selects the size distribution: "papermix" (default, the
	// 10KB..MaxMsgSize decade mix) or "websearch" (the DCTCP empirical CDF).
	Workload string
}

const (
	fig6Rate       = 100e9            // per path, bits/s
	fig6BaseDelay  = time.Microsecond // per link
	fig6ExtraDelay = time.Microsecond // additional delay on path 2
	fig6QueueCap   = 256              // packets
	fig6ECNK       = 64               // packets
)

func (c Fig6Config) withDefaults() Fig6Config {
	if c.Messages == 0 {
		c.Messages = 400
	}
	if c.MaxMsgSize == 0 {
		c.MaxMsgSize = 32 << 20
	}
	if c.Load == 0 {
		c.Load = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout == 0 {
		c.Timeout = time.Second
	}
	return c
}

// Fig6Row is one policy's flow-completion-time statistics.
type Fig6Row struct {
	Policy    string
	Completed int
	P50us     float64
	P99us     float64
	MeanUs    float64
	// Retx counts retransmitted packets (the reordering penalty).
	Retx uint64
}

// Fig6Result holds the three rows of the figure.
type Fig6Result struct {
	Config Fig6Config
	Rows   []Fig6Row
}

// RunFig6 runs the same workload under each policy.
func RunFig6(cfg Fig6Config) Fig6Result {
	cfg = cfg.withDefaults()
	res := Fig6Result{Config: cfg}

	policies := []struct {
		name string
		mk   func() simnet.ForwardPolicy
	}{
		{"ECMP", func() simnet.ForwardPolicy { return simnet.ECMP{} }},
		{"Spray", func() simnet.ForwardPolicy { return &simnet.Spray{} }},
		{"MsgRR", func() simnet.ForwardPolicy { return simnet.NewMessageRR() }},
		{"MTP-LB", func() simnet.ForwardPolicy { return simnet.NewMessageLB() }},
	}
	for _, p := range policies {
		res.Rows = append(res.Rows, runFig6Policy(cfg, p.name, p.mk()))
	}
	return res
}

func runFig6Policy(cfg Fig6Config, name string, policy simnet.ForwardPolicy) Fig6Row {
	rig := newTwoPath(twoPathSpec{
		FastRate: fig6Rate, SlowRate: fig6Rate,
		LinkDelay: fig6BaseDelay, SlowDelay: fig6BaseDelay + fig6ExtraDelay,
		QueueCap: fig6QueueCap, ECNThreshold: fig6ECNK,
		EdgeRate: 2 * fig6Rate, EdgeQueue: 8192,
		Seed: cfg.Seed, Policy: policy, Pathlets: 2,
	})

	// FCT bookkeeping: message ID -> start time.
	start := make(map[uint64]time.Duration)
	var fcts []float64

	sender := simhost.AttachMTP(rig.net, rig.snd, core.Config{LocalPort: 1, RTO: 2 * time.Millisecond})
	simhost.AttachMTP(rig.net, rig.rcv, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) {
		if t0, ok := start[m.MsgID]; ok {
			fcts = append(fcts, float64((m.Complete - t0).Microseconds()))
			delete(start, m.MsgID)
		}
	}})

	// Open-loop Poisson arrivals of the skewed mix at the configured load
	// of a single path (so two paths are comfortably sufficient when
	// balanced well, and tails come from imbalance).
	r := rand.New(rand.NewSource(cfg.Seed))
	var dist workload.SizeDist = workload.PaperMix(cfg.MaxMsgSize)
	if cfg.Workload == "websearch" {
		dist = workload.NewEmpirical(workload.WebSearchCDF)
	}
	arr := workload.ArrivalsForLoad(cfg.Load, fig6Rate, dist.Mean())
	t := time.Duration(0)
	for i := 0; i < cfg.Messages; i++ {
		size := dist.Sample(r)
		t += arr.Next(r)
		at := t
		rig.eng.Schedule(at, func() {
			m := sender.EP.SendSynthetic(rig.rcv.ID(), 2, size, core.SendOptions{})
			start[m.ID] = at
		})
	}
	rig.eng.Run(cfg.Timeout)

	return Fig6Row{
		Policy:    name,
		Completed: len(fcts),
		P50us:     stats.Percentile(fcts, 50),
		P99us:     stats.Percentile(fcts, 99),
		MeanUs:    stats.Summarize(fcts).Mean,
		Retx:      sender.EP.Stats.PktsRetx,
	}
}

// Fig6LoadPoint is the p99 FCT of each policy at one offered load.
type Fig6LoadPoint struct {
	Load float64
	P99  map[string]float64
}

// RunFig6LoadSweep varies offered load: imbalance penalties grow with load,
// so the gap between blind and message-aware balancing widens. All points
// share seed, so one sweep is reproducible end to end; workers only controls
// fan-out (see Sweep).
func RunFig6LoadSweep(workers int, loads []float64, messages, maxSize int, seed int64) []Fig6LoadPoint {
	if len(loads) == 0 {
		loads = []float64{0.5, 0.7, 0.9}
	}
	return Sweep(workers, loads, func(load float64) Fig6LoadPoint {
		r := RunFig6(Fig6Config{Load: load, Messages: messages, MaxMsgSize: maxSize, Seed: seed})
		pt := Fig6LoadPoint{Load: load, P99: make(map[string]float64)}
		for _, row := range r.Rows {
			pt.P99[row.Policy] = row.P99us
		}
		return pt
	})
}

// LoadSweepString renders the sweep.
func LoadSweepString(points []Fig6LoadPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 sweep: p99 FCT (us) vs offered load\n")
	fmt.Fprintf(&b, "  %-6s %10s %10s %10s %10s\n", "load", "ECMP", "Spray", "MsgRR", "MTP-LB")
	for _, p := range points {
		fmt.Fprintf(&b, "  %-6.2f %10.0f %10.0f %10.0f %10.0f\n",
			p.Load, p.P99["ECMP"], p.P99["Spray"], p.P99["MsgRR"], p.P99["MTP-LB"])
	}
	return b.String()
}

// String renders the figure as a table.
func (r Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: load- and request-aware load balancing (2×%s paths, %d msgs, %s mix)\n",
		gbpsStr(fig6Rate), r.Config.Messages, sizeStr(r.Config.MaxMsgSize))
	fmt.Fprintf(&b, "  %-8s %10s %12s %12s %12s %8s\n", "policy", "completed", "p50 FCT(us)", "p99 FCT(us)", "mean(us)", "retx")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8s %10d %12.0f %12.0f %12.0f %8d\n",
			row.Policy, row.Completed, row.P50us, row.P99us, row.MeanUs, row.Retx)
	}
	return b.String()
}

func sizeStr(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("10KB-%dGB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("10KB-%dMB", n>>20)
	default:
		return fmt.Sprintf("10KB-%dKB", n>>10)
	}
}
