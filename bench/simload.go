package main

import (
	_ "embed"
	"time"

	"mtp/internal/exp"
	"mtp/internal/topo"
)

// goldenIncast is the rendered result every sim_incast run must reproduce
// byte for byte, whatever the seed: the scenario has no probabilistic faults,
// so a simulator-speed change may alter how long the run takes and nothing
// else.
//
//go:embed golden/sim_incast.txt
var goldenIncast string

// simIncast is the sim_incast workload's configuration. Workers is 1 so the
// MTP and DCTCP rows run one after the other and neither row's host time
// includes waiting for a core the other row holds.
func simIncast(seed int64) exp.ScaleConfig {
	return exp.ScaleConfig{
		Topo: "fattree", K: 8, Pattern: "incast", Incast: 32,
		MsgSize: 1 << 20, Messages: 4, Shards: 1, Workers: 1, Seed: seed,
	}
}

// simRun is one exp.RunScale call with what it cost the process.
type simRun struct {
	res exp.ScaleResult
	use usageDelta
}

func runScale(cfg exp.ScaleConfig, rec *recorder) simRun {
	before := readUsage()
	s := rec.begin(spanRunScale, -1, 0)
	res := exp.RunScale(cfg)
	rec.end(s)
	return simRun{res: res, use: readUsage().since(before)}
}

// metrics reports one run under the shared end-to-end names and the sim
// layers' own. A "message" is one simulated message of the MTP row; CPU and
// allocations are those of the whole RunScale call, which always runs the
// DCTCP control row too.
func (r simRun) metrics() map[string]float64 {
	mtpRow, ctl := r.res.Rows[0], r.res.Rows[1]
	msgs := int64(mtpRow.Completed)
	bytes := ByteCount(msgs) * ByteCount(r.res.Config.MsgSize)
	perEvent := NanosPer(mtpRow.Wall, int64(mtpRow.Events))
	ctlPerEvent := NanosPer(ctl.Wall, int64(ctl.Events))
	m := map[string]float64{
		"msgs_per_s":   float64(RateFromDelta(msgs, mtpRow.Wall)),
		"goodput_MBps": BandwidthFromDelta(bytes, mtpRow.Wall).MBps(),
		"lat_p95_us":   NanosOf(mtpRow.Wall).Micros(),

		"sim.wall_ms":                 NanosOf(mtpRow.Wall).Millis(),
		"sim.alloc_MB":                r.use.allocBytes.MB(),
		"sim.mev_per_s":               mtpRow.EventsPerSec() / 1e6,
		"simhost.mtp_ns_per_event":    float64(perEvent),
		"baseline.dctcp_ns_per_event": float64(ctlPerEvent),
		"sim.events_mtp":              float64(mtpRow.Events),
		"sim.events_dctcp":            float64(ctl.Events),
		"exp.incast_mtp_p99_us":       mtpRow.P99us,
		"exp.incast_mtp_retx":         float64(mtpRow.Retx),
	}
	if ctlPerEvent > 0 {
		m["exp.mtp_over_dctcp_cost"] = float64(perEvent / ctlPerEvent)
	}
	r.use.perMessage(m, msgs)
	return m
}

// simSetup is what a simulator user pays before the first event of interest:
// building the k=8 fabric, and one quarter-size incast that fills the engine's
// and the network's free lists.
func simSetup(seed int64) time.Duration {
	t0 := time.Now()
	topo.NewFatTree(topo.FatTreeConfig{K: 8, Seed: seed})
	warm := simIncast(seed)
	warm.Messages = 1
	exp.RunScale(warm)
	return time.Since(t0)
}
