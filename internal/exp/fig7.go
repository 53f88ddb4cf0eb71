package exp

import (
	"fmt"
	"strings"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/cc"
	"mtp/internal/core"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
)

// Fig7Config parameterizes the per-entity isolation experiment: two tenants
// share one 100 Gbps / 10 µs link through a common switch; tenant 2 drives
// 8× the number of message streams. Three systems are compared: DCTCP with
// one shared queue, DCTCP with one queue per tenant, and MTP with a
// fair-share policy enforced at the shared queue.
type Fig7Config struct {
	Tenant2Flows int           // default 8
	Duration     time.Duration // default 20 ms
	Seed         int64
}

const (
	fig7Rate         = 100e9                 // every link, bits/s
	fig7Delay        = 10 * time.Microsecond // the shared link and the receiver's uplink
	fig7QueueCap     = 512                   // shared link, packets
	fig7ECNK         = 64                    // packets
	fig7Tenant1Flows = 1
)

func (c Fig7Config) withDefaults() Fig7Config {
	if c.Tenant2Flows == 0 {
		c.Tenant2Flows = 8
	}
	if c.Duration == 0 {
		c.Duration = 20 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig7Row is one system's per-tenant throughput split.
type Fig7Row struct {
	System      string
	Tenant1Gbps float64
	Tenant2Gbps float64
}

// Ratio returns tenant2/tenant1 throughput.
func (r Fig7Row) Ratio() float64 {
	if r.Tenant1Gbps == 0 {
		return 0
	}
	return r.Tenant2Gbps / r.Tenant1Gbps
}

// Fig7Result holds the three systems' splits.
type Fig7Result struct {
	Config Fig7Config
	Rows   []Fig7Row
}

// RunFig7 runs all three systems.
func RunFig7(cfg Fig7Config) Fig7Result {
	cfg = cfg.withDefaults()
	return Fig7Result{Config: cfg, Rows: []Fig7Row{
		runFig7DCTCP(cfg, false),
		runFig7DCTCP(cfg, true),
		runFig7MTP(cfg),
	}}
}

// The topology is senders -> switch -> shared link -> receiver: a star of
// sender hosts over fig7Edge links, and the receiver attached over the shared
// link under test, answering through the switch over fig7Return.
var (
	fig7Edge   = simnet.LinkConfig{Rate: fig7Rate, Delay: time.Microsecond, QueueCap: 1024}
	fig7Return = simnet.LinkConfig{Rate: fig7Rate, Delay: fig7Delay, QueueCap: 1024}
)

func tenantOf(i int) int {
	if i < fig7Tenant1Flows {
		return 1
	}
	return 2
}

// runFig7DCTCP runs the baseline with a shared queue or per-tenant queues.
func runFig7DCTCP(cfg Fig7Config, separateQueues bool) Fig7Row {
	shared := simnet.LinkConfig{
		Rate: fig7Rate, Delay: fig7Delay, QueueCap: fig7QueueCap, ECNThreshold: fig7ECNK,
	}
	name := "DCTCP shared queue"
	if separateQueues {
		name = "DCTCP separate queues"
		shared.Queues = 2
		shared.QueueCap = fig7QueueCap / 2
		shared.ECNThreshold = fig7ECNK / 2
		shared.Classify = func(p *simnet.Packet) int {
			if p.Tenant == 2 {
				return 1
			}
			return 0
		}
	}
	r := newRig(cfg.Seed)
	hosts, sw := r.star(fig7Tenant1Flows+cfg.Tenant2Flows, fig7Edge)
	rcv := r.attach(sw, fig7Return, shared)

	delivered := map[int]int64{}
	demux := baseline.NewDemux()
	rcv.SetHandler(demux.Handle)
	for i, h := range hosts {
		tenant := tenantOf(i)
		conn := uint64(i + 1)
		snd := baseline.NewSender(r.eng, h, baseline.SenderConfig{
			Conn: conn, Dst: rcv.ID(), SkipHandshake: true, Tenant: tenant,
			RTO: 2 * time.Millisecond,
		})
		rcvr := baseline.NewReceiver(r.eng, rcv, baseline.ReceiverConfig{
			Conn: conn, Src: h.ID(), Tenant: tenant,
			OnDeliver: func(_ time.Duration, n int) { delivered[tenant] += int64(n) },
		})
		demux.Add(conn, rcvr.OnPacket)
		h.SetHandler(snd.OnPacket)
		snd.Write(1 << 32)
	}
	r.eng.Run(cfg.Duration)
	return Fig7Row{
		System:      name,
		Tenant1Gbps: float64(delivered[1]) * 8 / cfg.Duration.Seconds() / 1e9,
		Tenant2Gbps: float64(delivered[2]) * 8 / cfg.Duration.Seconds() / 1e9,
	}
}

// runFig7MTP runs MTP senders against a shared queue with a fair-share
// policer — per-entity enforcement without per-tenant queues.
func runFig7MTP(cfg Fig7Config) Fig7Row {
	pathID := uint32(1)
	shared := simnet.LinkConfig{
		Rate: fig7Rate, Delay: fig7Delay, QueueCap: fig7QueueCap, ECNThreshold: fig7ECNK,
		Pathlet: &pathID, StampECN: true,
		Policer: &simnet.FairSharePolicer{},
	}
	r := newRig(cfg.Seed)
	hosts, sw := r.star(fig7Tenant1Flows+cfg.Tenant2Flows, fig7Edge)
	rcv := r.attach(sw, fig7Return, shared)

	delivered := map[int]int64{}
	simhost.AttachMTP(r.net, rcv, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) {
		delivered[int(m.TC)] += int64(m.Size)
	}})
	for i, h := range hosts {
		_, fill := r.saturate(h, core.Config{
			LocalPort: uint16(10 + i), TC: uint8(tenantOf(i)), RTO: 2 * time.Millisecond,
			CCConfig: cc.Config{MaxWindow: 1 << 20},
		}, rcv.ID(), 1<<20)
		fill(4)
	}
	r.eng.Run(cfg.Duration)
	return Fig7Row{
		System:      "MTP shared queue + policy",
		Tenant1Gbps: float64(delivered[1]) * 8 / cfg.Duration.Seconds() / 1e9,
		Tenant2Gbps: float64(delivered[2]) * 8 / cfg.Duration.Seconds() / 1e9,
	}
}

// String renders the figure as a table.
func (r Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: per-entity isolation (%s shared link, tenant2 has %dx the flows)\n",
		gbpsStr(fig7Rate), r.Config.Tenant2Flows/fig7Tenant1Flows)
	fmt.Fprintf(&b, "  %-28s %12s %12s %8s\n", "system", "tenant1 Gbps", "tenant2 Gbps", "ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-28s %12.1f %12.1f %8.1f\n", row.System, row.Tenant1Gbps, row.Tenant2Gbps, row.Ratio())
	}
	return b.String()
}
