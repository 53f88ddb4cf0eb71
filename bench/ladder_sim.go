package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"mtp/internal/exp"
	"mtp/internal/sim"
	"mtp/internal/simnet"
	"mtp/internal/topo"
)

// goldenFig5 pins the paper's headline comparison at the 20 ms window the
// fidelity anchors use.
//
//go:embed golden/fig5.json
var goldenFig5 []byte

type fig5Anchors struct {
	MTPGbps        float64 `json:"mtp_gbps"`
	DCTCPGbps      float64 `json:"dctcp_gbps"`
	ImprovementPct float64 `json:"improvement_pct"`
}

func runFig5() fig5Anchors {
	r := exp.RunFig5(exp.Fig5Config{Duration: 20 * time.Millisecond})
	return fig5Anchors{MTPGbps: r.MTP.MeanGbps, DCTCPGbps: r.DCTCP.MeanGbps, ImprovementPct: 100 * r.Improvement}
}

// engineRung times the event engine alone: 4096 events always pending, each
// rescheduling itself at a pseudo-random distance, closure-free.
func (l *ladder) engineRung() {
	eng := sim.NewEngine(l.seed)
	const pending = 4096
	total := uint64(l.n(1000000))
	var fired uint64
	lcg := uint32(l.seed)
	var tick func(a1, a2 any)
	tick = func(_, _ any) {
		fired++
		if fired+pending <= total {
			lcg = lcg*1664525 + 1013904223
			eng.ScheduleArg(time.Duration(1+lcg>>22), tick, nil, nil)
		}
	}
	for i := 0; i < pending; i++ {
		lcg = lcg*1664525 + 1013904223
		eng.ScheduleArg(time.Duration(1+lcg>>22), tick, nil, nil)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	eng.RunAll(total + pending)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	per := NanosPer(elapsed, int64(fired))
	l.set("sim.ns_per_event", float64(per))
	l.set("sim.allocs_per_kevent", 1e3*float64(ms1.Mallocs-ms0.Mallocs)/float64(fired))
	fmt.Fprintf(l.out, "  sim      engine alone, %d pending: %v/event over %d events, %.2f allocs/kevent\n",
		pending, per, fired, l.cells["sim.allocs_per_kevent"].Median)
}

// Packet sizes of the simnet rung: a full data packet and an ACK.
const (
	simDataBytes = 1500
	simAckBytes  = 64
)

type simnetSender struct {
	fab       *topo.Fabric
	host      *simnet.Host
	remaining int
}

// simnetTick sends one data packet to host 0 and re-arms itself. Senders are
// paced so the sink's 10 Gbps downlink stays just under saturation: nothing
// is dropped and every packet crosses every hop of its path.
func simnetTick(a1, _ any) {
	s := a1.(*simnetSender)
	pkt := s.host.AllocPacket()
	pkt.Dst, pkt.Size, pkt.FlowID = s.fab.HostID(0), simDataBytes, uint64(s.host.ID())
	s.host.Send(pkt)
	if s.remaining--; s.remaining > 0 {
		s.fab.Eng.ScheduleArg(40*time.Microsecond, simnetTick, s, nil)
	}
}

// simnetRung moves sim_incast's traffic (32 senders to host 0 on the k=8
// fat-tree, one ACK-sized packet back per data packet, as many data packets
// as the MTP run sends) with no endpoints at all: raw packets from Host.Send
// into null handlers. It returns the hops crossed and the host time per hop,
// which includes the engine events each hop takes: the engine's cost per
// event depends on how many events are pending and how far ahead they land,
// so its share is measured here, in place, rather than subtracted from
// engineRung's number.
func (l *ladder) simnetRung() (hops uint64, perHop Nanos) {
	t0 := time.Now()
	fab := topo.NewFatTree(topo.FatTreeConfig{K: 8, Seed: l.seed})
	l.set("topo.build_ms", NanosOf(time.Since(t0)).Millis())

	const senders = 32
	// 128 messages of 1 MB at MSS 1460, plus the 5444 retransmissions.
	perSender := l.n((128*719 + 5444) / senders)
	delivered := 0
	sink := fab.Host(0)
	sink.SetHandler(func(pkt *simnet.Packet) {
		delivered++
		ack := sink.AllocPacket()
		ack.Dst, ack.Size, ack.FlowID = pkt.Src, simAckBytes, uint64(pkt.Src)
		sink.Send(ack)
	})
	for i := 1; i <= senders; i++ {
		h := fab.Host(i)
		h.SetHandler(func(*simnet.Packet) { delivered++ })
		// Stagger the senders across one pacing interval.
		fab.Eng.ScheduleArg(time.Duration(i)*1250*time.Nanosecond, simnetTick,
			&simnetSender{fab: fab, host: h, remaining: perSender}, nil)
	}
	t0 = time.Now()
	fab.Eng.RunAll(1 << 40)
	elapsed := time.Since(t0)

	for _, link := range fab.Net.Links() {
		hops += link.Stats().TxPackets
	}
	events := fab.Eng.Processed()
	if want := 2 * senders * perSender; delivered != want || hops == 0 {
		l.faults++
		fmt.Fprintf(l.out, "  simnet   delivered %d of %d packets\n", delivered, want)
		return hops, 0
	}
	perHop = NanosPer(elapsed, int64(hops))
	l.set("simnet.ns_per_hop", float64(perHop))
	l.set("simnet.events_per_hop", float64(events)/float64(hops))
	fmt.Fprintf(l.out, "  simnet   k=8 fat-tree built in %.2fms; %d raw packets, %d hops, %d events: %v/hop including its %.2f engine events\n",
		l.cells["topo.build_ms"].Median, delivered, hops, events, perHop, float64(events)/float64(hops))
	return hops, perHop
}

func (l *ladder) simRungs() {
	l.engineRung()
	hops, perHop := l.simnetRung()

	cfg := simIncast(l.seed)
	if l.b.Quick {
		cfg.MsgSize, cfg.Messages = 64<<10, 1
	}
	one := runScale(cfg, l.rec)
	if !l.b.Quick && one.res.String() != goldenIncast {
		l.faults++
	}
	for k, v := range one.metrics() {
		if _, isLayer := perLayerByName[k]; isLayer {
			l.set(k, v)
		}
	}
	mtpRow, ctl := one.res.Rows[0], one.res.Rows[1]
	// What is left of the MTP run once the same packets have been moved
	// with no endpoints attached.
	share := 1 - float64(perHop)*float64(hops)/float64(mtpRow.Wall)
	l.set("sim.endpoint_share", share)
	fmt.Fprintf(l.out, "  exp      RunScale incast: MTP %v for %d events (%v/event), DCTCP %v for %d (%v/event): MTP costs %.2fx per event; endpoints take %.0f%% of the MTP run\n",
		mtpRow.Wall.Round(time.Millisecond), mtpRow.Events, NanosPer(mtpRow.Wall, int64(mtpRow.Events)),
		ctl.Wall.Round(time.Millisecond), ctl.Events, NanosPer(ctl.Wall, int64(ctl.Events)),
		l.cells["exp.mtp_over_dctcp_cost"].Median, 100*share)

	two := cfg
	two.Shards = 2
	sharded := exp.RunScale(two)
	if sharded.String() != one.res.String() {
		l.faults++ // sharding must not change the experiment
	}
	s0, s1 := sharded.Rows[0], sharded.Rows[1]
	l.set("shard.rounds_2", float64(s0.Rounds))
	l.set("shard.crossings_2", float64(s0.Crossings))
	l.set("shard.dctcp_crossings_2", float64(s1.Crossings))
	l.set("shard.speedup_2", float64(mtpRow.Wall)/float64(s0.Wall))
	l.set("shard.dctcp_speedup_2", float64(ctl.Wall)/float64(s1.Wall))
	fmt.Fprintf(l.out, "  shard    2 shards: MTP %.2fx (%d rounds, %d crossings), DCTCP %.2fx (%d crossings)\n",
		l.cells["shard.speedup_2"].Median, s0.Rounds, s0.Crossings, l.cells["shard.dctcp_speedup_2"].Median, s1.Crossings)

	// The invariant checker's cost, on a quarter-size incast: best of three
	// each way, alternating, because one 150 ms run is mostly host noise.
	quarter := cfg
	quarter.Messages = 1
	checked := quarter
	checked.Check = true
	var plainWall, checkedWall time.Duration
	for i := 0; i < 3; i++ {
		if w := exp.RunScale(quarter).Rows[0].Wall; i == 0 || w < plainWall {
			plainWall = w
		}
		r := exp.RunScale(checked).Rows[0]
		if r.ViolationCount != 0 {
			l.faults++
		}
		if i == 0 || r.Wall < checkedWall {
			checkedWall = r.Wall
		}
	}
	l.set("check.overhead_frac", float64(checkedWall)/float64(plainWall)-1)

	got := runFig5()
	var want fig5Anchors
	if err := json.Unmarshal(goldenFig5, &want); err != nil || got != want {
		l.faults++
		fmt.Fprintf(l.out, "  exp      fig5 differs from golden/fig5.json: got %+v\n", got)
	}
	l.set("exp.fig5_mtp_gbps", got.MTPGbps)
	l.set("exp.fig5_improvement_pct", got.ImprovementPct)
	fmt.Fprintf(l.out, "  check    Check:true costs %.0f%% on a quarter-size incast; fig5 (20ms): MTP %.2f Gbps, %+.2f%% over DCTCP\n",
		100*l.cells["check.overhead_frac"].Median, got.MTPGbps, got.ImprovementPct)
}
