package exp

import (
	"fmt"
	"strings"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/cc"
	"mtp/internal/check"
	"mtp/internal/core"
	"mtp/internal/fault"
	"mtp/internal/simnet"
	"mtp/internal/stats"
)

// FailoverConfig parameterizes the failure-recovery experiment: one sender
// and one receiver joined by a fast and a slow path, where the fast path
// silently blackholes mid-transfer. MTP detects the dead pathlet from
// consecutive RTOs, excludes it in its headers so the switch reroutes onto
// the slow path, and later readmits it by probing; DCTCP has one connection
// bound to whatever path the network picked and can only wait the outage
// out. The headline number is how much faster MTP's goodput recovers.
type FailoverConfig struct {
	FaultAt  time.Duration // 5 ms: blackhole onset
	FaultFor time.Duration // 20 ms: blackhole duration
	Duration time.Duration // 40 ms
	Seed     int64
	// Baseline names the rival transport run against MTP, one of
	// baseline.RivalNames: DCTCP (the default), coupled multipath TCP with
	// dead-path reinjection (the strongest rival here, since it holds a
	// subflow on the surviving path), or the QUIC-like baseline (multiplexed
	// streams, one connection pinned to the blackholed path like DCTCP).
	Baseline string
	// Check runs the MTP side under the protocol invariant harness
	// (internal/check) — the failover invariants (no sends onto excluded
	// pathlets, readmission only on live feedback) are this experiment's
	// whole subject.
	Check bool
}

// What the experiment fixes besides the paper's two-path numbers.
const (
	failoverRTO            = time.Millisecond     // both systems
	failoverRTOs           = 2                    // consecutive RTOs declare a pathlet dead
	failoverProbeInterval  = 4 * time.Millisecond // between readmission probes
	failoverSampleInterval = 100 * time.Microsecond
)

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.FaultAt == 0 {
		c.FaultAt = 5 * time.Millisecond
	}
	if c.FaultFor == 0 {
		c.FaultFor = 20 * time.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = 40 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// FailoverSeries is one system's trace plus its recovery metrics.
type FailoverSeries struct {
	Name string
	Gbps []float64
	// PreFaultGbps is the mean goodput over the 1ms before the fault.
	PreFaultGbps float64
	// Recovery is the time from fault onset until goodput first reaches
	// half the slow path's rate again; Recovered is false if it never does.
	Recovery  time.Duration
	Recovered bool
	// FirstDelivery is the time from fault onset until any byte is
	// delivered (the application-visible outage).
	FirstDelivery time.Duration
	// DipGbits is the goodput lost to the fault: the area between the
	// pre-fault mean and the trace, from onset to the end of the run.
	DipGbits float64
}

// FailoverResult holds both systems' outcomes.
type FailoverResult struct {
	Config FailoverConfig
	MTP    FailoverSeries
	// DCTCP is the rival transport's trace. The field keeps its historical
	// name for the default baseline; Series.Name carries the configured one
	// (DCTCP, MPTCP-LIA, MPTCP-OLIA, or QUIC).
	DCTCP FailoverSeries
	// Speedup is the rival's recovery time over MTP's recovery time.
	Speedup float64
	// Failovers/ProbesSent/Readmissions are the MTP sender's fault counters.
	Failovers, ProbesSent, Readmissions uint64
	// Faults is the injector's event log.
	Faults []fault.Event
	// Checked/Violations report the invariant harness outcome over the MTP
	// run when Config.Check is set.
	Checked        bool
	Violations     []check.Violation
	ViolationCount int
}

// rig builds the two-path topology (see twoPathSpec for the policies) and
// schedules the blackhole on its fast path.
func (c FailoverConfig) rig(pathlets int, policy simnet.ForwardPolicy) (*twoPath, *fault.Injector) {
	rig := paperTwoPath(c.Seed, policy, pathlets)
	in := fault.NewInjector(rig.eng, c.Seed)
	in.Blackhole(rig.fast, c.FaultAt, c.FaultFor)
	return rig, in
}

// RunFailover executes the experiment for both systems.
func RunFailover(cfg FailoverConfig) FailoverResult {
	cfg = cfg.withDefaults()
	res := FailoverResult{Config: cfg}

	// --- MTP run: pathlet failover around the blackhole ---
	{
		rig, in := cfg.rig(2, nil)
		var chk *check.Checker
		if cfg.Check {
			chk = check.New(rig.eng, rig.net)
		}
		sender, series := rig.runMTP(core.Config{
			RTO: failoverRTO, FailoverRTOs: failoverRTOs, ProbeInterval: failoverProbeInterval,
			CCConfig: cc.Config{MaxWindow: paperMaxWindow, LineRate: paperFastRate},
		}, chk, failoverSampleInterval, cfg.Duration)
		res.MTP = summarizeFailover(cfg, "MTP", series)
		res.Failovers = sender.EP.Stats.Failovers
		res.ProbesSent = sender.EP.Stats.ProbesSent
		res.Readmissions = sender.EP.Stats.Readmissions
		res.Faults = in.Events()
		if chk != nil {
			chk.Finalize()
			res.Checked = true
			res.Violations = chk.Violations()
			res.ViolationCount = chk.Count()
		}
	}

	res.DCTCP = runFailoverRival(cfg)
	if res.MTP.Recovered && res.DCTCP.Recovered && res.MTP.Recovery > 0 {
		res.Speedup = float64(res.DCTCP.Recovery) / float64(res.MTP.Recovery)
	}
	return res
}

// runFailoverRival runs the configured baseline under the same blackhole,
// wired through the same adapter as every other experiment (baseline.Wiring),
// with the pipe kept full for the whole run. How each fares is decided by the
// two registry properties read here:
//
//   - DCTCP is one connection pinned to the blackholed path. It can only wait
//     the outage out.
//   - QUIC (Multiplexed) runs a closed loop of streams — a completed stream is
//     replaced — but stream independence does not help when every stream
//     shares the connection's flow ID: it rides the outage out exactly like
//     DCTCP.
//   - MPTCP (Multipath) gets ECMP at the switch, which multiplies the flow ID
//     by an odd constant and so preserves parity: the even subflow ID hashes
//     to candidate 0 (fast), the odd one to candidate 1 (slow). When the fast
//     path blackholes, dead-path detection (FailoverRTOs consecutive
//     timeouts) reinjects the dead subflow's unacked bytes onto the surviving
//     one. It is the one rival that recovers during the outage, which is why
//     it is worth beating on detection latency: it still burns RTOs serially
//     where MTP's pathlet state is shared across messages.
func runFailoverRival(cfg FailoverConfig) FailoverSeries {
	rv := baseline.MustRival(cfg.Baseline)
	var policy simnet.ForwardPolicy
	if rv.Multipath {
		policy = simnet.ECMP{}
	}
	rig, _ := cfg.rig(0, policy)
	w := rv.Wire(rig.eng, rig, baseline.WireConfig{
		RTO: failoverRTO, CCConfig: cc.Config{MaxWindow: paperMaxWindow}, FailoverRTOs: failoverRTOs,
	})
	// One effectively infinite message, or eight 1 MB streams each replaced
	// when it completes.
	msg, outstanding := baseline.Msg{Src: 0, Dst: 1, Size: 1 << 32, ID: 1}, 1
	if rv.Multiplexed {
		msg.Size, outstanding = 1<<20, 8
	}
	var start func()
	start = func() {
		msg.Stream++
		w.Start(msg, func(time.Duration, uint64) {
			if rv.Multiplexed {
				start()
			}
		})
	}
	series := sampleBytes(rig.eng, failoverSampleInterval, cfg.Duration, w.Expect(msg))
	for i := 0; i < outstanding; i++ {
		start()
	}
	rig.eng.Run(cfg.Duration)
	return summarizeFailover(cfg, rv.Short, series)
}

func summarizeFailover(cfg FailoverConfig, name string, sampled *byteSeries) FailoverSeries {
	series := sampled.Gbps
	s := FailoverSeries{Name: name, Gbps: series}
	preFrom := cfg.FaultAt - time.Millisecond
	if preFrom < 0 {
		preFrom = 0
	}
	lo, hi := int(preFrom/failoverSampleInterval), int(cfg.FaultAt/failoverSampleInterval)
	n := 0
	for i := lo; i < hi && i < len(series); i++ {
		s.PreFaultGbps += series[i]
		n++
	}
	if n > 0 {
		s.PreFaultGbps /= float64(n)
	}
	// Recovered means goodput is back to at least half the surviving
	// (slow) path's capacity.
	const threshold = paperSlowRate / 2 / 1e9
	s.Recovery, s.Recovered = stats.RecoveryTime(series, failoverSampleInterval, cfg.FaultAt, threshold)
	s.FirstDelivery, _ = stats.TimeToFirstDelivery(sampled.Bytes, failoverSampleInterval, cfg.FaultAt)
	s.DipGbits = stats.DipArea(series, failoverSampleInterval, cfg.FaultAt, s.PreFaultGbps)
	return s
}

// String renders the experiment as text.
func (r FailoverResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failover: %s path blackholes at %v for %v (paths %s/%s, detect after %d RTOs of %v)\n",
		"fast", r.Config.FaultAt, r.Config.FaultFor,
		gbpsStr(paperFastRate), gbpsStr(paperSlowRate), failoverRTOs, failoverRTO)
	for _, s := range []FailoverSeries{r.DCTCP, r.MTP} {
		rec := "never"
		if s.Recovered {
			rec = s.Recovery.String()
		}
		fmt.Fprintf(&b, "  %-6s pre-fault %6.2f Gbps  recovery %-10s first-delivery %-10v dip %7.2f Gbit\n",
			s.Name, s.PreFaultGbps, rec, s.FirstDelivery, s.DipGbits)
	}
	fmt.Fprintf(&b, "  MTP sender: %d failover(s), %d probe(s), %d readmission(s)\n",
		r.Failovers, r.ProbesSent, r.Readmissions)
	if r.Speedup > 0 {
		fmt.Fprintf(&b, "  MTP recovered %.1fx faster than %s\n", r.Speedup, r.DCTCP.Name)
	}
	fmt.Fprintf(&b, "  fault timeline:\n")
	for _, e := range r.Faults {
		fmt.Fprintf(&b, "    %v\n", e)
	}
	if r.Checked {
		if r.ViolationCount == 0 {
			fmt.Fprintf(&b, "  invariants: ok\n")
		} else {
			fmt.Fprintf(&b, "  invariants: %d violation(s)\n", r.ViolationCount)
			writeViolations(&b, r.Violations)
		}
	}
	return b.String()
}

// Samples renders the two traces side by side for plotting.
func (r FailoverResult) Samples() string {
	return samplesTable(r.DCTCP.Name, failoverSampleInterval, r.DCTCP.Gbps, r.MTP.Gbps)
}
