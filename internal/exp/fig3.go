package exp

import (
	"fmt"
	"strings"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/core"
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
	Outstanding int           // concurrent messages per host, default 4
	Duration    time.Duration // default 10 ms
	Seed        int64
}

const (
	fig3Rate           = 100e9            // every link, bits/s
	fig3Delay          = time.Microsecond // per link
	fig3QueueCap       = 256              // bottleneck, packets
	fig3ECNK           = 64               // packets
	fig3Hosts          = 4
	fig3MsgSize        = 16 << 10
	fig3SampleInterval = 32 * time.Microsecond
)

func (c Fig3Config) withDefaults() Fig3Config {
	if c.Outstanding == 0 {
		c.Outstanding = 4
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
func fig3Net(seed int64) (r *rig, senders, sinks []*simnet.Host) {
	r = newRig(seed)
	sw1 := simnet.NewSwitch(r.net, nil)
	sw2 := simnet.NewSwitch(r.net, nil)
	pathID := uint32(1)
	bottleneck := r.net.Connect(sw2, simnet.LinkConfig{
		Rate: fig3Rate, Delay: fig3Delay, QueueCap: fig3QueueCap, ECNThreshold: fig3ECNK,
		Pathlet: &pathID, StampECN: true,
	}, "bottleneck")
	back := r.net.Connect(sw1, simnet.LinkConfig{
		Rate: fig3Rate, Delay: fig3Delay, QueueCap: fig3QueueCap,
	}, "bottleneck-rev")

	edge := simnet.LinkConfig{Rate: fig3Rate, Delay: fig3Delay, QueueCap: 1024}
	for i := 0; i < fig3Hosts; i++ {
		s := r.attach(sw1, edge, edge)
		sw2.AddRoute(s.ID(), back) // acks go sw2->sw1->s
		senders = append(senders, s)

		d := r.attach(sw2, edge, edge)
		sw1.AddRoute(d.ID(), bottleneck)
		sinks = append(sinks, d)
	}
	return r, senders, sinks
}

func runFig3TCP(cfg Fig3Config) Fig3Row {
	r, senders, sinks := fig3Net(cfg.Seed)
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
		snd := baseline.NewSender(r.eng, s, baseline.SenderConfig{
			Conn: conn, Dst: d.ID(), RTO: 2 * time.Millisecond,
			OnComplete: func(time.Duration) {
				messages++
				startMsg(host) // next message: a brand-new connection
			},
		})
		rcv := baseline.NewReceiver(r.eng, d, baseline.ReceiverConfig{
			Conn: conn, Src: s.ID(),
			OnDeliver: func(_ time.Duration, n int) { delivered += uint64(n) },
		})
		sndDemuxes[host].Add(conn, snd.OnPacket)
		demuxes[host].Add(conn, rcv.OnPacket)
		snd.Write(fig3MsgSize)
		snd.Close()
	}
	for h := range senders {
		for k := 0; k < cfg.Outstanding; k++ {
			startMsg(h)
		}
	}
	series := sampleBytes(r.eng, fig3SampleInterval, cfg.Duration, func() uint64 { return delivered })
	r.eng.Run(cfg.Duration)
	return summarizeFig3("TCP 1-msg-per-conn", series.Gbps, messages)
}

func runFig3MTP(cfg Fig3Config) Fig3Row {
	r, senders, sinks := fig3Net(cfg.Seed)
	messages := 0

	sinkEPs := make([]*simhost.MTPHost, len(sinks))
	for i, d := range sinks {
		sinkEPs[i] = simhost.AttachMTP(r.net, d, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) {
			messages++
		}})
	}
	for i, s := range senders {
		_, fill := r.saturate(s, core.Config{LocalPort: uint16(10 + i), RTO: 2 * time.Millisecond},
			sinks[i].ID(), fig3MsgSize)
		fill(cfg.Outstanding)
	}
	series := sampleBytes(r.eng, fig3SampleInterval, cfg.Duration, func() uint64 {
		var total uint64
		for _, ep := range sinkEPs {
			total += ep.EP.Stats.PayloadBytes
		}
		return total
	})
	r.eng.Run(cfg.Duration)
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
		fig3MsgSize>>10, fig3Hosts, gbpsStr(fig3Rate))
	fmt.Fprintf(&b, "  %-20s %10s %10s %10s\n", "system", "mean Gbps", "CoV", "messages")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-20s %10.1f %10.2f %10d\n", row.System, row.MeanGbps, row.CoV, row.Messages)
	}
	return b.String()
}
