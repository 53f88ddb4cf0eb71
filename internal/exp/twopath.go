package exp

import (
	"fmt"
	"strings"
	"time"

	"mtp/internal/check"
	"mtp/internal/core"
	"mtp/internal/sim"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
)

// The paper's two-path numbers, shared by Figure 5 and the failover
// experiment.
const (
	paperFastRate  = 100e9 // bits/s
	paperSlowRate  = 10e9
	paperLinkDelay = time.Microsecond
	paperQueueCap  = 128 // packets
	paperECNK      = 20  // packets
	// paperMaxWindow models the socket-buffer cap both transports get:
	// ~2× the fast path's bandwidth-delay product.
	paperMaxWindow = 256 << 10
)

// paperTwoPath builds the two-path rig with the paper's numbers.
func paperTwoPath(seed int64, policy simnet.ForwardPolicy, pathlets int) *twoPath {
	return newTwoPath(twoPathSpec{
		FastRate: paperFastRate, SlowRate: paperSlowRate,
		LinkDelay: paperLinkDelay, SlowDelay: paperLinkDelay,
		QueueCap: paperQueueCap, ECNThreshold: paperECNK,
		EdgeRate: paperFastRate, EdgeQueue: 4096,
		Seed: seed, Policy: policy, Pathlets: pathlets,
	})
}

// twoPathSpec parameterizes the snd → switch → {fast, slow} → rcv topology
// with a direct, uncongested rcv → snd return link: Figures 5 and 6, the
// failover and exclusion experiments, and the multipath Table 1 probes.
type twoPathSpec struct {
	FastRate, SlowRate float64
	// LinkDelay is the propagation delay of every link but the slow path,
	// which has SlowDelay.
	LinkDelay, SlowDelay time.Duration
	QueueCap             int
	ECNThreshold         int
	// EdgeRate and EdgeQueue configure the sender's uplink and the return
	// link.
	EdgeRate  float64
	EdgeQueue int
	Seed      int64
	// Policy is the switch's forwarding policy: Figure 5 alternates between
	// the paths like an optical switch, failover leaves nil (SingleRoute: all
	// traffic takes the fast path until a header's exclude list forces the
	// slow one, so rerouting is entirely end-host-driven) or passes ECMP for a
	// multipath rival.
	Policy simnet.ForwardPolicy
	// Pathlets is how many pathlet IDs the two links stamp: 2 gives each its
	// own (the MTP runs), 1 makes the whole network one pathlet (the ablation
	// that mimics TCP), 0 stamps none (the rival runs).
	Pathlets int
}

// twoPath is the built rig. As a baseline.Hosts, host 0 is the sender and
// host 1 the receiver.
type twoPath struct {
	*rig
	snd, rcv   *simnet.Host
	fast, slow *simnet.Link
}

func newTwoPath(spec twoPathSpec) *twoPath {
	r := &twoPath{rig: newRig(spec.Seed)}
	r.snd = simnet.NewHost(r.net)
	r.rcv = simnet.NewHost(r.net)
	sw := simnet.NewSwitch(r.net, spec.Policy)

	edge := simnet.LinkConfig{Rate: spec.EdgeRate, Delay: spec.LinkDelay, QueueCap: spec.EdgeQueue}
	r.snd.SetUplink(r.net.Connect(sw, edge, "snd->sw"))

	fastID, slowID := uint32(1), uint32(2)
	if spec.Pathlets == 1 {
		slowID = fastID
	}
	mk := func(rate float64, delay time.Duration, id *uint32, name string) *simnet.Link {
		lc := simnet.LinkConfig{
			Rate: rate, Delay: delay,
			QueueCap: spec.QueueCap, ECNThreshold: spec.ECNThreshold,
		}
		if spec.Pathlets > 0 {
			lc.Pathlet = id
			lc.StampECN = true
		}
		return r.net.Connect(r.rcv, lc, name)
	}
	r.fast = mk(spec.FastRate, spec.LinkDelay, &fastID, "fast")
	r.slow = mk(spec.SlowRate, spec.SlowDelay, &slowID, "slow")
	sw.AddRoute(r.rcv.ID(), r.fast)
	sw.AddRoute(r.rcv.ID(), r.slow)

	// Reverse path for ACKs: direct, uncongested.
	r.rcv.SetUplink(r.net.Connect(r.snd, edge, "rcv->snd"))
	return r
}

func (r *twoPath) NumHosts() int { return 2 }

func (r *twoPath) Host(i int) *simnet.Host {
	if i == 0 {
		return r.snd
	}
	return r.rcv
}

func (r *twoPath) HostID(i int) simnet.NodeID { return r.Host(i).ID() }

// runMTP runs the MTP side of a two-path experiment to the end of duration:
// a sender (port 1, sndCfg) kept saturated — 8 MB outstanding, every
// acknowledged 1 MB message replaced — toward a receiver (port 2) whose
// goodput is sampled. chk, when non-nil, observes both endpoints.
func (r *twoPath) runMTP(sndCfg core.Config, chk *check.Checker, interval, duration time.Duration) (*simhost.MTPHost, *byteSeries) {
	sndCfg.LocalPort = 1
	rcvCfg := core.Config{LocalPort: 2}
	if chk != nil {
		sndCfg.Observer, rcvCfg.Observer = chk, chk
	}
	sender, fill := r.saturate(r.snd, sndCfg, r.rcv.ID(), 1<<20)
	receiver := simhost.AttachMTP(r.net, r.rcv, rcvCfg)
	if chk != nil {
		chk.AttachEndpoint(sender.EP, r.snd.ID())
		chk.AttachEndpoint(receiver.EP, r.rcv.ID())
	}
	series := sampleBytes(r.eng, interval, duration, func() uint64 { return receiver.EP.Stats.PayloadBytes })
	fill(8)
	r.eng.Run(duration)
	return sender, series
}

// byteSeries is a monotone byte counter sampled on a fixed interval: the raw
// per-interval byte counts (for time-to-first-delivery) and the derived
// Gbit/s series.
type byteSeries struct {
	Bytes []uint64
	Gbps  []float64
}

// sampleBytes samples read every interval until duration — the paper's
// "measure the flow throughput every 32 µs" methodology, applied to receiver
// goodput. The series fills in as the engine runs.
func sampleBytes(eng *sim.Engine, interval, duration time.Duration, read func() uint64) *byteSeries {
	s := &byteSeries{}
	var last uint64
	var tick func()
	tick = func() {
		total := read()
		delta := total - last
		last = total
		s.Bytes = append(s.Bytes, delta)
		s.Gbps = append(s.Gbps, float64(delta)*8/interval.Seconds()/1e9)
		if eng.Now()+interval <= duration {
			eng.Schedule(interval, tick)
		}
	}
	eng.Schedule(interval, tick)
	return s
}

// samplesTable renders a rival's and MTP's Gbit/s series side by side for
// plotting, one row per sampling interval.
func samplesTable(rival string, interval time.Duration, rivalGbps, mtpGbps []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# t_us\t%s_gbps\tmtp_gbps\n", strings.ToLower(rival))
	n := min(len(mtpGbps), len(rivalGbps))
	step := interval.Microseconds()
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d\t%.3f\t%.3f\n", int64(i+1)*step, rivalGbps[i], mtpGbps[i])
	}
	return b.String()
}
