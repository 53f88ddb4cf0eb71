package exp

// Extension experiments for the design points the paper discusses beyond
// its evaluation figures (Section 3.1.3 pathlet exclusion, Section 4's
// multi-algorithm coexistence and NDP-style trimming, and message-priority
// scheduling). Each returns measured rows; `mtpexp -exp ext` prints them and
// testdata/ext.golden pins them.

import (
	"fmt"
	"strings"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/cc"
	"mtp/internal/core"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
	"mtp/internal/stats"
	"mtp/internal/wire"
)

// ExclusionResult compares MTP goodput across two ECMP paths where one path
// is congested by cross traffic, with and without the sender's auto-exclude
// policy (which tells the network to avoid the congested pathlet).
type ExclusionResult struct {
	WithoutGbps float64
	WithGbps    float64
	Exclusions  uint64
	// CongestedShare is the fraction of MTP data packets that crossed the
	// congested path in the with-exclusion run.
	CongestedShare float64
}

// RunExclusion executes the probe.
func RunExclusion(duration time.Duration) ExclusionResult {
	if duration <= 0 {
		duration = 10 * time.Millisecond
	}
	run := func(auto bool) (float64, uint64, float64) {
		rig := newTwoPath(twoPathSpec{
			FastRate: 10e9, SlowRate: 10e9, LinkDelay: time.Microsecond, SlowDelay: time.Microsecond,
			QueueCap: 128, ECNThreshold: 20, EdgeRate: 20e9, EdgeQueue: 2048,
			Seed: 1, Policy: &simnet.Spray{}, Pathlets: 2,
		})
		l1, l2 := rig.fast, rig.slow // congested, clean

		// Cross traffic pins path 1 at ~90% with non-ECN UDP, so MTP data
		// crossing it is marked persistently.
		cross := baseline.NewUDPSender(rig.eng, baseline.Route{Pool: rig.net, Emit: l1.Enqueue},
			99, rig.rcv.ID(), 1460, 9e9)
		cross.Start()

		cfg := core.Config{LocalPort: 1, RTO: 2 * time.Millisecond, AutoExclude: auto}
		sender, fill := rig.saturate(rig.snd, cfg, rig.rcv.ID(), 1<<20)
		receiver := simhost.AttachMTP(rig.net, rig.rcv, core.Config{LocalPort: 2})
		fill(8)
		rig.eng.Run(duration)
		goodput := float64(receiver.EP.Stats.PayloadBytes) * 8 / duration.Seconds() / 1e9
		// Congested-path share of MTP traffic: its Tx minus cross traffic.
		crossBytes := cross.Sent * uint64(1460+40)
		mtpOn1 := int64(l1.Stats().TxBytes) - int64(crossBytes)
		if mtpOn1 < 0 {
			mtpOn1 = 0
		}
		share := float64(mtpOn1) / float64(mtpOn1+int64(l2.Stats().TxBytes)+1)
		return goodput, sender.EP.Stats.Exclusions, share
	}
	var res ExclusionResult
	res.WithoutGbps, _, _ = run(false)
	res.WithGbps, res.Exclusions, res.CongestedShare = run(true)
	return res
}

// String renders the result.
func (r ExclusionResult) String() string {
	return fmt.Sprintf("Pathlet exclusion: goodput %.1f -> %.1f Gbps (%d exclusions, %.0f%% of traffic on congested path)\n",
		r.WithoutGbps, r.WithGbps, r.Exclusions, r.CongestedShare*100)
}

// MultiAlgoResult demonstrates multi-algorithm congestion control: two
// resources in series, one providing RCP explicit-rate feedback and one
// providing DCTCP ECN feedback, controlled simultaneously by one sender.
type MultiAlgoResult struct {
	GoodputGbps    float64
	BottleneckGbps float64
	RCPPathAlgo    string
	ECNPathAlgo    string
	RCPRateGbps    float64
}

// RunMultiAlgo executes the probe.
func RunMultiAlgo(duration time.Duration) MultiAlgoResult {
	if duration <= 0 {
		duration = 10 * time.Millisecond
	}
	r := newRig(1)
	snd := simnet.NewHost(r.net)
	mid := simnet.NewSwitch(r.net, nil)
	rcv := simnet.NewHost(r.net)

	p1, p2 := uint32(1), uint32(2)
	// Hop 1: 40 Gbps RCP resource (explicit rate feedback).
	snd.SetUplink(r.net.Connect(mid, simnet.LinkConfig{
		Rate: 40e9, Delay: time.Microsecond, QueueCap: 512,
		Pathlet: &p1, StampRate: true,
	}, "rcp-hop"))
	// Hop 2: 10 Gbps DCTCP resource (ECN feedback) — the bottleneck.
	mid.AddRoute(rcv.ID(), r.net.Connect(rcv, simnet.LinkConfig{
		Rate: 10e9, Delay: time.Microsecond, QueueCap: 128, ECNThreshold: 20,
		Pathlet: &p2, StampECN: true,
	}, "ecn-hop"))
	rcv.SetUplink(r.net.Connect(snd, simnet.LinkConfig{Rate: 40e9, Delay: time.Microsecond, QueueCap: 512}, "rcv->snd"))

	factory := func(p wire.PathTC) cc.Algorithm {
		ccCfg := cc.Config{MSS: 1460}
		if p.PathID == 1 {
			return cc.NewRCP(ccCfg)
		}
		return cc.NewDCTCP(ccCfg)
	}
	sender, fill := r.saturate(snd, core.Config{
		LocalPort: 1, CCFactory: factory, RTO: 2 * time.Millisecond,
	}, rcv.ID(), 1<<20)
	receiver := simhost.AttachMTP(r.net, rcv, core.Config{LocalPort: 2})
	fill(8)
	r.eng.Run(duration)

	res := MultiAlgoResult{
		GoodputGbps:    float64(receiver.EP.Stats.PayloadBytes) * 8 / duration.Seconds() / 1e9,
		BottleneckGbps: 10,
	}
	if st, ok := sender.EP.Table().Lookup(wire.PathTC{PathID: 1}); ok {
		res.RCPPathAlgo = st.Algo.Name()
		if bps, ok := st.Algo.Rate(); ok {
			res.RCPRateGbps = bps / 1e9
		}
	}
	if st, ok := sender.EP.Table().Lookup(wire.PathTC{PathID: 2}); ok {
		res.ECNPathAlgo = st.Algo.Name()
	}
	return res
}

// String renders the result.
func (r MultiAlgoResult) String() string {
	return fmt.Sprintf("Multi-algorithm CC: %s on hop1 (rate %.1f Gbps) + %s on hop2; goodput %.1f of %.0f Gbps bottleneck\n",
		r.RCPPathAlgo, r.RCPRateGbps, r.ECNPathAlgo, r.GoodputGbps, r.BottleneckGbps)
}

// PriorityResult compares high-priority message latency with FIFO vs
// priority-scheduled egress queues keyed on the header's MsgPri field —
// per-message scheduling visibility no byte stream can give a switch.
type PriorityResult struct {
	FIFOp99us     float64
	PriorityP99us float64
}

// RunPriority executes the probe.
func RunPriority(duration time.Duration) PriorityResult {
	if duration <= 0 {
		duration = 10 * time.Millisecond
	}
	run := func(prioQueues bool) float64 {
		r := newRig(1)
		eng, net := r.eng, r.net
		snd, rcv := simnet.NewHost(net), simnet.NewHost(net)
		lc := simnet.LinkConfig{
			Rate: 10e9, Delay: time.Microsecond, QueueCap: 2048, ECNThreshold: 1 << 20,
		}
		if prioQueues {
			lc.Queues = 2
			lc.StrictPriority = true
			lc.Classify = func(p *simnet.Packet) int {
				if p.Hdr != nil && p.Hdr.MsgPri >= 4 {
					return 1
				}
				return 0
			}
		}
		snd.SetUplink(net.Connect(rcv, lc, "snd->rcv"))
		rcv.SetUplink(net.Connect(snd, simnet.LinkConfig{Rate: 10e9, Delay: time.Microsecond, QueueCap: 2048}, "rcv->snd"))

		start := map[uint64]time.Duration{}
		var lat []float64
		sender := simhost.AttachMTP(net, snd, core.Config{
			LocalPort: 1,
			// Huge windows: the experiment isolates switch scheduling, not CC.
			CCConfig: cc.Config{InitWindow: 1 << 30},
			RTO:      5 * time.Millisecond,
		})
		simhost.AttachMTP(net, rcv, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) {
			if t0, ok := start[m.MsgID]; ok && m.Pri >= 4 {
				lat = append(lat, float64((m.Complete - t0).Microseconds()))
			}
		}})
		// Background: bulk messages at priority 0 keep the link saturated.
		for i := 0; i < 4; i++ {
			sender.EP.SendSynthetic(rcv.ID(), 2, 1<<20, core.SendOptions{Priority: 0})
		}
		// Periodic high-priority 2 KB control messages ride on top.
		for t := 100 * time.Microsecond; t < duration; t += 200 * time.Microsecond {
			eng.Schedule(t, func() {
				m := sender.EP.SendSynthetic(rcv.ID(), 2, 2048, core.SendOptions{Priority: 9})
				start[m.ID] = t
				sender.EP.SendSynthetic(rcv.ID(), 2, 1<<20, core.SendOptions{Priority: 0})
			})
		}
		eng.Run(duration)
		return stats.Percentile(lat, 99)
	}
	return PriorityResult{
		FIFOp99us:     run(false),
		PriorityP99us: run(true),
	}
}

// String renders the result.
func (r PriorityResult) String() string {
	return fmt.Sprintf("Priority scheduling: high-pri p99 %.0f us (FIFO) -> %.0f us (per-message priority queues)\n",
		r.FIFOp99us, r.PriorityP99us)
}

// TrimResult compares incast loss handling across the three device policies
// the paper admits (Sections 3.1.2 and 4): drop-tail, NDP-style trimming
// with NACKs, and lossless forwarding (PFC-style pause).
type TrimResult struct {
	DropFCTus     float64
	TrimFCTus     float64
	LosslessFCTus float64
	Trims         uint64
	Drops         uint64 // in the drop run
	LosslessDrops uint64 // must be zero
	Pauses        uint64
}

// RunTrim executes the probe: an 8-to-1 incast burst into a shallow buffer.
func RunTrim() TrimResult {
	run := func(mode string) (float64, *simnet.Link) {
		r := newRig(1)
		edge := simnet.LinkConfig{Rate: 10e9, Delay: time.Microsecond, QueueCap: 1024}
		lc := simnet.LinkConfig{
			Rate: 10e9, Delay: time.Microsecond, QueueCap: 32, ECNThreshold: 8,
		}
		up := edge
		switch mode {
		case "trim":
			lc.Trim = true
		case "lossless":
			lc.PauseThreshold = 24
			up.PauseThreshold = 512
		}
		sw := simnet.NewSwitch(r.net, nil)
		rcv := r.attach(sw, edge, lc)
		down := sw.Routes(rcv.ID())[0]

		const senders = 8
		var done []time.Duration
		simhost.AttachMTP(r.net, rcv, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) {
			done = append(done, m.Complete)
		}})
		for i := 0; i < senders; i++ {
			h := r.attach(sw, up, edge)
			if mode == "lossless" {
				down.AddUpstream(h.Uplink())
			}
			mh := simhost.AttachMTP(r.net, h, core.Config{LocalPort: uint16(10 + i), RTO: 2 * time.Millisecond})
			mh.EP.SendSynthetic(rcv.ID(), 2, 64<<10, core.SendOptions{})
		}
		r.eng.Run(50 * time.Millisecond)
		var worst time.Duration
		for _, d := range done {
			if d > worst {
				worst = d
			}
		}
		if len(done) != senders {
			worst = 50 * time.Millisecond // incomplete: report the cap
		}
		return float64(worst.Microseconds()), down
	}
	var r TrimResult
	var l *simnet.Link
	r.DropFCTus, l = run("drop")
	r.Drops = l.Stats().Drops
	r.TrimFCTus, l = run("trim")
	r.Trims = l.Stats().Trims
	r.LosslessFCTus, l = run("lossless")
	r.LosslessDrops = l.Stats().Drops
	r.Pauses = l.Pauses()
	return r
}

// String renders the result.
func (r TrimResult) String() string {
	return fmt.Sprintf("Incast policies: 8-to-1 tail FCT %.0f us (drop, %d drops) / %.0f us (trim, %d trims) / %.0f us (lossless, %d pauses, %d drops)\n",
		r.DropFCTus, r.Drops, r.TrimFCTus, r.Trims, r.LosslessFCTus, r.Pauses, r.LosslessDrops)
}

// ExtensionsSummary runs all extension probes and renders them.
func ExtensionsSummary() string {
	var b strings.Builder
	b.WriteString(RunExclusion(0).String())
	b.WriteString(RunMultiAlgo(0).String())
	b.WriteString(RunPriority(0).String())
	b.WriteString(RunTrim().String())
	return b.String()
}
