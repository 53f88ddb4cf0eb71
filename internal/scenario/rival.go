package scenario

import (
	"time"

	"mtp/internal/baseline"
	"mtp/internal/cc"
	"mtp/internal/check"
	"mtp/internal/fault"
	"mtp/internal/topo"
)

// runRivalSpec executes the sampled workload over the sampled rival
// transport instead of MTP endpoints: an open-loop driver (every message
// starts at its sampled time) over the same adapter the experiments use
// (baseline.Wiring). Only the network-level invariants (packet conservation,
// queue occupancy, ECN marking) apply — the rivals make no MTP delivery
// promises — but the same fabrics, fault schedules, and in-network devices
// are in the path, so this is the randomized counterpart of the baseline
// conformance suite: any panic, stuck retransmission loop, or conservation
// violation surfaces under a seed that shrinks to a one-line repro.
func runRivalSpec(sp Spec, fab *topo.Fabric, chk *check.Checker) Result {
	res := Result{Spec: sp, Expected: len(sp.Msgs)}
	w := baseline.MustRival(sp.Rival).Wire(fab.Eng, fab, baseline.WireConfig{
		RTO: time.Millisecond, CC: sp.CC,
		CCConfig:     cc.Config{LineRate: 10e9, MaxWindow: float64(sp.MaxWindowMSS) * 1460},
		FailoverRTOs: 2,
		OnDelivered:  func() { res.Delivered++ },
	})
	// Wire identifiers are fixed by the spec: the message's index, and its
	// rank among its (src, dst) pair's messages in start order. ECMP hashes
	// them, so recorded seeds replay only while they stay as they are.
	type pair struct{ src, dst int }
	streams := map[pair]uint64{}
	for i, ms := range sp.Msgs {
		m := baseline.Msg{Src: ms.Src, Dst: ms.Dst, Size: ms.Size, ID: uint64(i + 1)}
		w.Expect(m)
		fab.Eng.ScheduleAt(ms.Start, func() {
			p := pair{m.Src, m.Dst}
			streams[p]++
			m.Stream = streams[p]
			w.Start(m, func(time.Duration, uint64) { res.Completed++ })
		})
	}

	inj := fault.NewInjector(fab.Eng, sp.Seed)
	applyFaults(sp, fab, inj)

	fab.Eng.Run(sp.Horizon)
	chk.Finalize()
	res.Violations = chk.Violations()
	res.Count = chk.Count()
	res.Events = fab.Eng.Processed()
	return res
}
