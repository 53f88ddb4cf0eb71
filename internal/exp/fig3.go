package exp

import (
	"fmt"
	"strings"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/core"
	"mtp/internal/sim"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
	"mtp/internal/stats"
)

// Fig3Config parameterizes the one-message-per-flow experiment: four hosts
// on a dumbbell send 16 KB messages over a shared 100 Gbps bottleneck,
// opening a new connection for every message (the TCP configuration that
// gives inter-message independence). Congestion control restarts from
// scratch per message, so aggregate throughput is noisy and low; MTP keeps
// pathlet congestion state across messages and stays smooth.
type Fig3Config struct {
	Rate           float64       // default 100 Gbps
	Delay          time.Duration // per link, default 1 µs
	QueueCap       int           // default 256
	ECNK           int           // default 64
	Hosts          int           // default 4
	MsgSize        int           // default 16 KB
	Outstanding    int           // concurrent messages per host, default 4
	SampleInterval time.Duration // default 32 µs
	Duration       time.Duration // default 10 ms
	Seed           int64
}

func (c Fig3Config) withDefaults() Fig3Config {
	if c.Rate == 0 {
		c.Rate = 100e9
	}
	if c.Delay == 0 {
		c.Delay = time.Microsecond
	}
	if c.QueueCap == 0 {
		c.QueueCap = 256
	}
	if c.ECNK == 0 {
		c.ECNK = 64
	}
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.MsgSize == 0 {
		c.MsgSize = 16 << 10
	}
	if c.Outstanding == 0 {
		c.Outstanding = 4
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 32 * time.Microsecond
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig3Row summarizes one transport's throughput trace.
type Fig3Row struct {
	System   string
	Gbps     []float64
	MeanGbps float64
	// CoV is the coefficient of variation of the trace — the noisiness the
	// figure illustrates.
	CoV float64
	// Messages completed.
	Messages int
}

// Fig3Result holds both systems.
type Fig3Result struct {
	Config Fig3Config
	Rows   []Fig3Row
}

// RunFig3 runs TCP one-connection-per-message and MTP one-message-per-RPC.
func RunFig3(cfg Fig3Config) Fig3Result {
	cfg = cfg.withDefaults()
	return Fig3Result{Config: cfg, Rows: []Fig3Row{
		runFig3TCP(cfg),
		runFig3MTP(cfg),
	}}
}

// fig3Net builds the dumbbell: hosts -> sw1 -> bottleneck -> sw2 -> sinks.
func fig3Net(cfg Fig3Config) (*sim.Engine, *simnet.Network, []*simnet.Host, []*simnet.Host) {
	eng := sim.NewEngine(cfg.Seed)
	net := simnet.NewNetwork(eng)
	sw1 := simnet.NewSwitch(net, nil)
	sw2 := simnet.NewSwitch(net, nil)
	pathID := uint32(1)
	bottleneck := net.Connect(sw2, simnet.LinkConfig{
		Rate: cfg.Rate, Delay: cfg.Delay, QueueCap: cfg.QueueCap, ECNThreshold: cfg.ECNK,
		Pathlet: &pathID, StampECN: true,
	}, "bottleneck")
	back := net.Connect(sw1, simnet.LinkConfig{
		Rate: cfg.Rate, Delay: cfg.Delay, QueueCap: cfg.QueueCap,
	}, "bottleneck-rev")

	var senders, sinks []*simnet.Host
	for i := 0; i < cfg.Hosts; i++ {
		s := simnet.NewHost(net)
		s.SetUplink(net.Connect(sw1, simnet.LinkConfig{Rate: cfg.Rate, Delay: cfg.Delay, QueueCap: 1024}, "s-up"))
		sw2.AddRoute(s.ID(), back) // unused by sw2 directly; acks go sw2->sw1->s
		sw1.AddRoute(s.ID(), net.Connect(s, simnet.LinkConfig{Rate: cfg.Rate, Delay: cfg.Delay, QueueCap: 1024}, "s-down"))
		senders = append(senders, s)

		d := simnet.NewHost(net)
		d.SetUplink(net.Connect(sw2, simnet.LinkConfig{Rate: cfg.Rate, Delay: cfg.Delay, QueueCap: 1024}, "d-up"))
		sw2.AddRoute(d.ID(), net.Connect(d, simnet.LinkConfig{Rate: cfg.Rate, Delay: cfg.Delay, QueueCap: 1024}, "d-down"))
		sw1.AddRoute(d.ID(), bottleneck)
		sinks = append(sinks, d)
	}
	return eng, net, senders, sinks
}

func runFig3TCP(cfg Fig3Config) Fig3Row {
	eng, _, senders, sinks := fig3Net(cfg)
	var delivered uint64
	messages := 0
	nextConn := uint64(1)

	demuxes := make([]*baseline.Demux, len(sinks))
	for i, d := range sinks {
		demuxes[i] = baseline.NewDemux()
		d.SetHandler(demuxes[i].Handle)
	}
	sndDemuxes := make([]*baseline.Demux, len(senders))
	for i, s := range senders {
		sndDemuxes[i] = baseline.NewDemux()
		s.SetHandler(sndDemuxes[i].Handle)
	}

	// Each host keeps cfg.Outstanding message "slots"; each slot opens a
	// fresh connection per message (SYN handshake + slow start each time).
	var startMsg func(host int)
	startMsg = func(host int) {
		conn := nextConn
		nextConn++
		s := senders[host]
		d := sinks[host]
		snd := baseline.NewSender(eng, s.Send, baseline.SenderConfig{
			Conn: conn, Dst: d.ID(), RTO: 2 * time.Millisecond,
			OnComplete: func(time.Duration) {
				messages++
				startMsg(host) // next message: a brand-new connection
			},
		})
		rcv := baseline.NewReceiver(eng, d.Send, baseline.ReceiverConfig{
			Conn: conn, Src: s.ID(),
			OnDeliver: func(_ time.Duration, n int) { delivered += uint64(n) },
		})
		sndDemuxes[host].Add(conn, snd.OnPacket)
		demuxes[host].Add(conn, rcv.OnPacket)
		snd.Write(cfg.MsgSize)
		snd.Close()
	}
	for h := range senders {
		for k := 0; k < cfg.Outstanding; k++ {
			startMsg(h)
		}
	}
	series := sampleBytes(eng, cfg.SampleInterval, cfg.Duration, func() uint64 { return delivered })
	eng.Run(cfg.Duration)
	return summarizeFig3("TCP 1-msg-per-conn", series.Gbps, messages)
}

func runFig3MTP(cfg Fig3Config) Fig3Row {
	eng, net, senders, sinks := fig3Net(cfg)
	messages := 0

	sinkEPs := make([]*simhost.MTPHost, len(sinks))
	for i, d := range sinks {
		sinkEPs[i] = simhost.AttachMTP(net, d, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) {
			messages++
		}})
	}
	for i, s := range senders {
		i := i
		var mh *simhost.MTPHost
		refill := func(m *core.OutMessage) {
			mh.EP.SendSynthetic(sinks[i].ID(), 2, cfg.MsgSize, core.SendOptions{})
		}
		mh = simhost.AttachMTP(net, s, core.Config{
			LocalPort: uint16(10 + i), OnMessageSent: refill, RTO: 2 * time.Millisecond,
		})
		for k := 0; k < cfg.Outstanding; k++ {
			mh.EP.SendSynthetic(sinks[i].ID(), 2, cfg.MsgSize, core.SendOptions{})
		}
	}
	series := sampleBytes(eng, cfg.SampleInterval, cfg.Duration, func() uint64 {
		var total uint64
		for _, ep := range sinkEPs {
			total += ep.EP.Stats.PayloadBytes
		}
		return total
	})
	eng.Run(cfg.Duration)
	return summarizeFig3("MTP per-message", series.Gbps, messages)
}

func summarizeFig3(name string, series []float64, messages int) Fig3Row {
	// Skip warmup (first 10 samples).
	trimmed := series
	if len(trimmed) > 10 {
		trimmed = trimmed[10:]
	}
	s := stats.Summarize(trimmed)
	return Fig3Row{System: name, Gbps: series, MeanGbps: s.Mean, CoV: s.CoefficientOfVariation(), Messages: messages}
}

// String renders the figure.
func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: one %dKB message per flow, %d hosts, %s bottleneck\n",
		r.Config.MsgSize>>10, r.Config.Hosts, gbpsStr(r.Config.Rate))
	fmt.Fprintf(&b, "  %-20s %10s %10s %10s\n", "system", "mean Gbps", "CoV", "messages")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-20s %10.1f %10.2f %10d\n", row.System, row.MeanGbps, row.CoV, row.Messages)
	}
	return b.String()
}
