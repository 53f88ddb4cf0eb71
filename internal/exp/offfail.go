package exp

import (
	"fmt"
	"strings"
	"time"

	"mtp/internal/cc"
	"mtp/internal/check"
	"mtp/internal/core"
	"mtp/internal/fault"
	"mtp/internal/offload"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
)

// OffFailConfig parameterizes the offload-failure experiment: N workers run
// synchronous gradient rounds through an in-network aggregator whose switch
// crashes mid-round and later recovers. Two configurations of the same
// system are compared:
//
//   - fallback: delegated-ACK semantics on, host-side PSAggregator fallback
//     on. The crash turns into delegate timeouts → bypass retransmissions →
//     pathlet failover around the dead switch → the parameter server
//     completes rounds from raw contributions, then in-network aggregation
//     resumes after probe readmission.
//   - no-fallback: spoofed ACKs are final (the pre-delegation protocol).
//     Contributions absorbed by the crashed switch are gone, the open round
//     can never complete, and training wedges forever.
//
// One worker is a deliberate straggler so every round has a long window in
// which the aggregator holds partial state — the crash is guaranteed to land
// mid-round rather than between rounds.
type OffFailConfig struct {
	Duration time.Duration // 40 ms
	Seed     int64
	// Check runs the fallback configuration under the invariant harness with
	// the offload exactly-once audit enabled.
	Check bool
}

const (
	offFailWorkers         = 4                       // gradient sources
	offFailVecDim          = 8                       // elements per gradient
	offFailLinkRate        = 10e9                    // bits/s
	offFailLinkDelay       = 5 * time.Microsecond    // per link
	offFailQueueCap        = 128                     // packets
	offFailECNK            = 20                      // packets
	offFailRTO             = 500 * time.Microsecond  // initial RTO
	offFailMaxRTO          = 4 * time.Millisecond    // adaptive-RTO cap
	offFailDelegateTimeout = 1500 * time.Microsecond // delegated-ACK confirmation deadline
	offFailFailoverRTOs    = 2                       // consecutive RTOs declare a pathlet dead
	offFailProbeInterval   = 3 * time.Millisecond    // between readmission probes
	offFailRoundTimeout    = 2 * time.Millisecond    // aggregator straggler flush
	offFailStragglerDelay  = 200 * time.Microsecond  // last worker's extra think time
	offFailCrashAt         = 4 * time.Millisecond    // aggregator switch crash onset
	offFailCrashFor        = 8 * time.Millisecond    // outage duration
)

func (c OffFailConfig) withDefaults() OffFailConfig {
	if c.Duration == 0 {
		c.Duration = 40 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// OffFailSeries is one configuration's outcome.
type OffFailSeries struct {
	Name string
	// RoundsCompleted is how many aggregation rounds the parameter server
	// finished (each verified to carry every worker's contribution once).
	RoundsCompleted uint64
	// LastRoundAt is when the final round completed — for a wedged run it
	// freezes at the crash.
	LastRoundAt time.Duration
	// Wedged reports a round left permanently incomplete at the horizon.
	Wedged bool
	// SumErrors counts completed rounds whose aggregate differed from the
	// workers' true sum (must be zero in both configurations).
	SumErrors uint64

	// Transport-side counters summed over the workers.
	DelegatedAcks, DelegateTimeouts, MsgsReleased uint64
	Timeouts, RTOBackoffs                         uint64
	Failovers, Readmissions                       uint64

	// Device and fallback counters.
	AggConsumed, AggEmitted, AggPartialFlushes, AggResets uint64
	PSRaw, PSAggregates, PSOverlapsDropped                uint64
}

// OffFailResult holds both configurations' outcomes.
type OffFailResult struct {
	Config     OffFailConfig
	Fallback   OffFailSeries
	NoFallback OffFailSeries
	Faults     []fault.Event
	// Checked/Violations report the invariant harness (with the offload
	// exactly-once audit) over the fallback run when Config.Check is set.
	Checked        bool
	Violations     []check.Violation
	ViolationCount int
}

// offFailLeg runs one configuration; fallback selects delegated-ACK +
// host-side fallback semantics.
func offFailLeg(cfg OffFailConfig, fallback bool) (OffFailSeries, []fault.Event, *check.Checker) {
	name := "no-fallback"
	if fallback {
		name = "fallback"
	}
	s := OffFailSeries{Name: name}

	rig := newRig(cfg.Seed)
	eng, net := rig.eng, rig.net
	var chk *check.Checker
	if cfg.Check && fallback {
		chk = check.New(eng, net)
		chk.EnableOffloadAudit()
	}

	// Topology: workers → E → {A (aggregator, pathlet 1) | B (plain,
	// pathlet 2)} → PS; the return path PS → R → workers never crosses the
	// aggregator, so round-result broadcasts survive the crash. A also
	// reaches the workers via R for its spoofed ACKs.
	workers := make([]*simnet.Host, offFailWorkers)
	for i := range workers {
		workers[i] = simnet.NewHost(net)
	}
	ps := simnet.NewHost(net)
	edge := simnet.NewSwitch(net, simnet.SingleRoute{})
	aggSw := simnet.NewSwitch(net, simnet.SingleRoute{})
	plain := simnet.NewSwitch(net, simnet.SingleRoute{})
	ret := simnet.NewSwitch(net, simnet.SingleRoute{})

	lc := func(pathlet uint32) simnet.LinkConfig {
		c := simnet.LinkConfig{
			Rate: offFailLinkRate, Delay: offFailLinkDelay,
			QueueCap: offFailQueueCap, ECNThreshold: offFailECNK,
		}
		if pathlet != 0 {
			p := pathlet
			c.Pathlet = &p
			c.StampECN = true
		}
		return c
	}
	for i, w := range workers {
		w.SetUplink(net.Connect(edge, lc(0), fmt.Sprintf("w%d->edge", i)))
	}
	viaAgg := net.Connect(aggSw, lc(1), "edge->agg")
	viaPlain := net.Connect(plain, lc(2), "edge->plain")
	edge.AddRoute(ps.ID(), viaAgg)
	edge.AddRoute(ps.ID(), viaPlain)
	aggToPS := net.Connect(ps, lc(0), "agg->ps")
	aggSw.AddRoute(ps.ID(), aggToPS)
	plain.AddRoute(ps.ID(), net.Connect(ps, lc(0), "plain->ps"))
	ps.SetUplink(net.Connect(ret, lc(0), "ps->ret"))
	aggToRet := net.Connect(ret, lc(0), "agg->ret")
	for i, w := range workers {
		down := net.Connect(w, lc(0), fmt.Sprintf("ret->w%d", i))
		ret.AddRoute(w.ID(), down)
		aggSw.AddRoute(w.ID(), aggToRet) // spoofed ACKs
	}

	// The device emits contributor-tagged aggregates in both configurations
	// (a device property); straggler flushing likewise. The configurations
	// differ only in the workers' transport semantics below.
	agg := offload.NewAggregator(aggSw, ps.ID(), offFailWorkers)
	agg.EmitContributors = true
	agg.SetRoundTimeout(offFailRoundTimeout)

	// Parameter server: the host-side fallback completes rounds from
	// whatever arrives (in-network aggregates, partial flushes, raw bypass
	// retransmissions) and broadcasts each result. In the no-fallback
	// configuration it still understands both formats but, with nothing ever
	// retransmitted past a dead device, lost contributions stay lost.
	psagg := offload.NewPSAggregator(offFailWorkers)
	gradient := func(worker int, round uint64) []int64 {
		vec := make([]int64, offFailVecDim)
		for i := range vec {
			vec[i] = int64(round)*1000 + int64(worker)*10 + int64(i)
		}
		return vec
	}
	var psHost *simhost.MTPHost
	psagg.OnRound = func(round uint64, sum []int64) {
		s.RoundsCompleted++
		s.LastRoundAt = eng.Now()
		for i := range sum {
			var want int64
			for w := 0; w < offFailWorkers; w++ {
				want += gradient(w, round)[i]
			}
			if sum[i] != want {
				s.SumErrors++
				break
			}
		}
		payload := offload.EncodeResult(round, sum)
		for _, w := range workers {
			psHost.EP.Send(w.ID(), 1, payload, core.SendOptions{})
		}
	}
	if chk != nil {
		psagg.Audit = chk.OffloadRound
	}

	psCfg := core.Config{
		LocalPort: 2,
		RTO:       offFailRTO,
		OnMessage: func(m *core.InMessage) {
			from, _ := m.From.(simnet.NodeID)
			psagg.Ingest(from, m.Data)
		},
		CCConfig: cc.Config{LineRate: offFailLinkRate},
	}
	if chk != nil {
		psCfg.Observer = chk
	}
	psHost = simhost.AttachMTP(net, ps, psCfg)
	if chk != nil {
		chk.AttachEndpoint(psHost.EP, ps.ID())
	}

	// Workers: send round r, release on the round-r result broadcast, then
	// send round r+1 (the straggler after its think time). New rounds stop
	// 5ms before the horizon so in-flight work drains.
	stopAt := cfg.Duration - 5*time.Millisecond
	type workerState struct {
		host    *simhost.MTPHost
		pending map[uint64]*core.OutMessage
		round   uint64
	}
	ws := make([]*workerState, offFailWorkers)
	for i := range ws {
		i := i
		w := &workerState{pending: make(map[uint64]*core.OutMessage)}
		ws[i] = w
		sendRound := func(round uint64) {
			w.round = round
			w.pending[round] = w.host.EP.Send(ps.ID(), 2,
				offload.EncodeGradient(round, gradient(i, round)), core.SendOptions{})
		}
		wCfg := core.Config{
			LocalPort:     1,
			RTO:           offFailRTO,
			FailoverRTOs:  offFailFailoverRTOs,
			ProbeInterval: offFailProbeInterval,
			CCConfig:      cc.Config{LineRate: offFailLinkRate},
			OnMessage: func(m *core.InMessage) {
				round, _, ok := offload.DecodeResult(m.Data)
				if !ok {
					return
				}
				if msg := w.pending[round]; msg != nil {
					w.host.EP.Release(msg)
					delete(w.pending, round)
				}
				if round != w.round {
					return
				}
				if eng.Now() >= stopAt {
					// Drain window: no new rounds near the horizon, so every
					// started round can finish and the exactly-once audit
					// sees no legitimately-in-flight contributions.
					return
				}
				next := round + 1
				if i == offFailWorkers-1 {
					w.round = next
					eng.Schedule(offFailStragglerDelay, func() { sendRound(next) })
				} else {
					sendRound(next)
				}
			},
		}
		if fallback {
			wCfg.DelegateTimeout = offFailDelegateTimeout
			wCfg.MinRTO = offFailRTO / 4
			wCfg.MaxRTO = offFailMaxRTO
		}
		if chk != nil {
			wCfg.Observer = chk
		}
		w.host = simhost.AttachMTP(net, workers[i], wCfg)
		if chk != nil {
			chk.AttachEndpoint(w.host.EP, workers[i].ID())
		}
	}

	in := fault.NewInjector(eng, cfg.Seed)
	in.CrashSwitch(aggSw, offFailCrashAt, offFailCrashFor)

	for i, w := range ws {
		round := uint64(1)
		w.round = round
		if i == offFailWorkers-1 {
			i := i
			eng.Schedule(offFailStragglerDelay, func() {
				w.pending[round] = w.host.EP.Send(ps.ID(), 2,
					offload.EncodeGradient(round, gradient(i, round)), core.SendOptions{})
			})
		} else {
			w.pending[round] = w.host.EP.Send(ps.ID(), 2,
				offload.EncodeGradient(round, gradient(i, round)), core.SendOptions{})
		}
	}
	eng.Run(cfg.Duration)

	s.Wedged = psagg.Pending() > 0
	for _, w := range ws {
		st := w.host.EP.Stats
		s.DelegatedAcks += st.DelegatedAcks
		s.DelegateTimeouts += st.DelegateTimeouts
		s.MsgsReleased += st.MsgsReleased
		s.Timeouts += st.Timeouts
		s.RTOBackoffs += st.RTOBackoffs
		s.Failovers += st.Failovers
		s.Readmissions += st.Readmissions
	}
	s.AggConsumed = agg.Consumed
	s.AggEmitted = agg.Emitted
	s.AggPartialFlushes = agg.PartialFlushes
	s.AggResets = agg.Resets
	s.PSRaw = psagg.RawContribs
	s.PSAggregates = psagg.Aggregates
	s.PSOverlapsDropped = psagg.OverlapsDropped
	return s, in.Events(), chk
}

// RunOffFail executes the experiment for both configurations.
func RunOffFail(cfg OffFailConfig) OffFailResult {
	cfg = cfg.withDefaults()
	res := OffFailResult{Config: cfg}

	var chk *check.Checker
	res.Fallback, res.Faults, chk = offFailLeg(cfg, true)
	if chk != nil {
		chk.Finalize()
		res.Checked = true
		res.Violations = chk.Violations()
		res.ViolationCount = chk.Count()
	}
	res.NoFallback, _, _ = offFailLeg(cfg, false)
	return res
}

// String renders the experiment as text.
func (r OffFailResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Offload failure: %d workers, aggregator switch crashes at %v for %v (delegate timeout %v, round timeout %v)\n",
		offFailWorkers, offFailCrashAt, offFailCrashFor, offFailDelegateTimeout, offFailRoundTimeout)
	for _, s := range []OffFailSeries{r.NoFallback, r.Fallback} {
		state := "recovered"
		if s.Wedged {
			state = "WEDGED"
		}
		fmt.Fprintf(&b, "  %-11s rounds %-4d last at %-10v %-9s sum errors %d\n",
			s.Name, s.RoundsCompleted, s.LastRoundAt, state, s.SumErrors)
		fmt.Fprintf(&b, "    workers: %d delegated ack(s), %d delegate timeout(s), %d release(s), %d RTO(s) (%d backoff(s)), %d failover(s), %d readmission(s)\n",
			s.DelegatedAcks, s.DelegateTimeouts, s.MsgsReleased, s.Timeouts, s.RTOBackoffs, s.Failovers, s.Readmissions)
		fmt.Fprintf(&b, "    device:  %d consumed, %d aggregate(s) emitted (%d partial), %d crash reset(s)\n",
			s.AggConsumed, s.AggEmitted, s.AggPartialFlushes, s.AggResets)
		fmt.Fprintf(&b, "    server:  %d raw contribution(s), %d in-network aggregate(s), %d unsubtractable overlap(s) rejected\n",
			s.PSRaw, s.PSAggregates, s.PSOverlapsDropped)
	}
	fmt.Fprintf(&b, "  fault timeline:\n")
	for _, e := range r.Faults {
		fmt.Fprintf(&b, "    %v\n", e)
	}
	if r.Checked {
		if r.ViolationCount == 0 {
			fmt.Fprintf(&b, "  invariants (incl. offload exactly-once): ok\n")
		} else {
			fmt.Fprintf(&b, "  invariants: %d violation(s)\n", r.ViolationCount)
			writeViolations(&b, r.Violations)
		}
	}
	return b.String()
}
