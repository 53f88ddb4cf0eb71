package exp

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/check"
	"mtp/internal/core"
	"mtp/internal/shard"
	"mtp/internal/sim"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
	"mtp/internal/stats"
	"mtp/internal/topo"
	"mtp/internal/workload"
)

// ScaleConfig parameterizes the at-scale fabric experiments: a declarative
// datacenter topology (internal/topo), a traffic pattern over all hosts, and
// the two systems under comparison — MTP (per-pathlet CC + message-aware LB
// in every switch) against DCTCP over ECMP.
type ScaleConfig struct {
	// Topo selects the fabric: "leafspine" (default) or "fattree".
	Topo string
	// Leaves/Spines/HostsPerLeaf shape the leaf-spine. Default 16/4/8
	// (128 hosts, 2:1 oversubscribed at the rack: all links run at one rate).
	Leaves, Spines, HostsPerLeaf int
	// K is the fat-tree radix when Topo == "fattree". Default 8 (128 hosts).
	K int

	// Pattern is the traffic matrix: "permutation" (default, every host
	// streams to a random derangement partner), "incast" (Incast senders
	// converge on host 0), or "shuffle" (all-to-all, each host sends
	// MsgSize/(hosts-1) to every peer).
	Pattern string
	// MsgSize is the per-message size for permutation/incast and the
	// per-sender total for shuffle. Default 1 MB.
	MsgSize int
	// Messages is how many messages each sender sends back to back
	// (permutation/incast). Default 4.
	Messages int
	// Incast is the incast fan-in (clamped to hosts-1). Default 32.
	Incast int

	QueueCap int // per-port queue, default 256 pkts
	ECNK     int // ECN mark threshold, default 64 pkts

	Seed    int64         // default 1
	Timeout time.Duration // simulation cap, default 2 s
	// Workers fans the per-system runs out via Sweep; results are identical
	// regardless (each run owns its engine and RNG). The effective fan-out
	// is capped so Workers × Shards never exceeds GOMAXPROCS (CapWorkers).
	Workers int
	// Shards splits the simulation itself across this many engines running
	// in parallel (internal/shard; clamped to pods on the fat-tree, racks on
	// leaf-spine). Results are bit-identical to Shards == 1 — sharding buys
	// wall-clock speed, not a different experiment. Default 1.
	Shards int
	// Baseline names the rival transport run against MTP, one of
	// baseline.RivalNames: DCTCP over ECMP (the default), coupled multipath
	// TCP (RFC 6356 LIA, or OLIA), or the QUIC-like baseline (multiplexed
	// streams over one connection, single CC context, pinned to one ECMP
	// path).
	Baseline string
	// Check runs both systems under the protocol invariant harness
	// (internal/check): network-wide packet conservation, queue/ECN, and —
	// for the MTP run — delivery, congestion-bound, and failover invariants.
	Check bool
}

// What every fabric fixes: equal host and trunk rates (so a rack is
// oversubscribed by its shape alone), per-hop delay, the endpoints' RTO and
// the queue-occupancy sampling cadence.
const (
	scaleLinkRate       = 10e9 // bits/s
	scaleDelay          = time.Microsecond
	scaleRTO            = time.Millisecond
	scaleSampleInterval = 100 * time.Microsecond
)

// ScaleTopos and ScalePatterns list the values ScaleConfig.Topo and .Pattern
// accept, defaults first; the registry checks a row's cells against them.
var (
	ScaleTopos    = []string{"leafspine", "fattree"}
	ScalePatterns = []string{"permutation", "incast", "shuffle"}
)

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Topo == "" {
		c.Topo = ScaleTopos[0]
	}
	if c.Leaves == 0 {
		c.Leaves = 16
	}
	if c.Spines == 0 {
		c.Spines = 4
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 8
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.Pattern == "" {
		c.Pattern = ScalePatterns[0]
	}
	if c.MsgSize == 0 {
		c.MsgSize = 1 << 20
	}
	if c.Messages == 0 {
		c.Messages = 4
	}
	if c.Incast == 0 {
		c.Incast = 32
	}
	if c.QueueCap == 0 {
		c.QueueCap = 256
	}
	if c.ECNK == 0 {
		c.ECNK = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	// Clamp the shard count to the topology's partition unit: pods for the
	// fat-tree, racks for leaf-spine.
	if c.Topo == "fattree" && c.Shards > c.K {
		c.Shards = c.K
	}
	if c.Topo == "leafspine" && c.Shards > c.Leaves {
		c.Shards = c.Leaves
	}
	return c
}

// scaleHosts is the fabric's host count, computed without building it.
func scaleHosts(cfg ScaleConfig) int {
	if cfg.Topo == "fattree" {
		return cfg.K * cfg.K * cfg.K / 4
	}
	return cfg.Leaves * cfg.HostsPerLeaf
}

// ScaleRow is one system's results over the whole fabric.
type ScaleRow struct {
	System    string
	Completed int
	Expected  int
	P50us     float64
	P99us     float64
	// GoodputGbps is aggregate delivered application bytes over the
	// makespan (first send to last completion).
	GoodputGbps float64
	// QueuePeak / QueueP99 summarize the worst trunk occupancy (packets)
	// sampled every scaleSampleInterval across all fabric trunks.
	QueuePeak int
	QueueP99  float64
	Retx      uint64
	// Checked/Violations report the invariant harness outcome when
	// ScaleConfig.Check is set.
	Checked    bool
	Violations []check.Violation
	// ViolationCount is the true violation total (Violations is capped).
	ViolationCount int

	// Engine performance for this run. Kept out of String() — the rendered
	// experiment results must compare equal for every shard count, and wall
	// clock never does. PerfString renders these.
	Events    uint64        // events executed across all shards
	Wall      time.Duration // real time the run took
	Shards    int           // engines the run was split across
	Rounds    uint64        // shard barrier rounds (1 on a single engine)
	Crossings uint64        // packets that crossed a shard boundary
}

// EventsPerSec is the run's aggregate event throughput.
func (r ScaleRow) EventsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Events) / r.Wall.Seconds()
}

// ScaleResult holds both systems' rows for one configuration.
type ScaleResult struct {
	Config ScaleConfig
	Hosts  int
	Rows   []ScaleRow
}

// scaleMsg is one planned message: destination host index and size.
type scaleMsg struct {
	dst  int
	size int
}

// scalePlan derives each host's message sequence from the pattern. The plan
// is a pure function of (config, host count), so the MTP and DCTCP runs —
// every shard of them, and any re-run with the same seed — see byte-identical
// traffic.
func scalePlan(cfg ScaleConfig, n int) [][]scaleMsg {
	plan := make([][]scaleMsg, n)
	switch cfg.Pattern {
	case "incast":
		fan := cfg.Incast
		if fan > n-1 {
			fan = n - 1
		}
		for s := 1; s <= fan; s++ {
			for k := 0; k < cfg.Messages; k++ {
				plan[s] = append(plan[s], scaleMsg{dst: 0, size: cfg.MsgSize})
			}
		}
	case "shuffle":
		size := cfg.MsgSize / (n - 1)
		if size < 1460 {
			size = 1460
		}
		for s := 0; s < n; s++ {
			// Walk peers starting after ourselves so the shuffle begins
			// spread out instead of synchronized onto host 0.
			for k := 1; k < n; k++ {
				plan[s] = append(plan[s], scaleMsg{dst: (s + k) % n, size: size})
			}
		}
	case "permutation":
		perm := workload.Permutation(rand.New(rand.NewSource(cfg.Seed)), n)
		for s := 0; s < n; s++ {
			for k := 0; k < cfg.Messages; k++ {
				plan[s] = append(plan[s], scaleMsg{dst: perm[s], size: cfg.MsgSize})
			}
		}
	default:
		panic(fmt.Sprintf("exp: unknown scale pattern %q", cfg.Pattern))
	}
	return plan
}

// buildScaleCluster instantiates the configured topology as cfg.Shards
// engines (internal/shard) with per-switch policies from mk (nil = ECMP).
// withDefaults has already clamped Shards to the partition unit. One shard is
// the single-engine run, not an approximation of it: the shard builders and
// topo.NewFatTree/NewLeafSpine are the same builder, and Cluster.Run on one
// shard is Engine.Run.
func buildScaleCluster(cfg ScaleConfig, mk topo.PolicyFunc) *shard.Cluster {
	link := topo.LinkSpec{Rate: scaleLinkRate, Delay: scaleDelay, QueueCap: cfg.QueueCap, ECNThreshold: cfg.ECNK}
	switch cfg.Topo {
	case "fattree":
		return shard.NewFatTreeCluster(topo.FatTreeConfig{
			K: cfg.K, HostLink: link, FabricLink: link, Policy: mk, Seed: cfg.Seed,
		}, cfg.Shards)
	case "leafspine":
		return shard.NewLeafSpineCluster(topo.LeafSpineConfig{
			Leaves: cfg.Leaves, Spines: cfg.Spines, HostsPerLeaf: cfg.HostsPerLeaf,
			HostLink: link, FabricLink: link, Policy: mk, Seed: cfg.Seed,
		}, cfg.Shards)
	}
	panic(fmt.Sprintf("exp: unknown topology %q", cfg.Topo))
}

// scaleProbe samples the worst per-trunk queue occupancy on a fixed cadence.
// Each shard probes its own trunks; merge folds the per-shard series into the
// global one. Ticks run at sim.PriLast so a sample always observes the fabric
// after every delivery and retransmission at that instant, which is what
// keeps the series identical for every shard count.
type scaleProbe struct {
	samples []float64
	peak    int
}

func (p *scaleProbe) start(fab *topo.Fabric, interval time.Duration) {
	var tick func()
	tick = func() {
		max := 0
		// The network's exact queued-packet counter short-circuits the scan
		// when nothing is queued anywhere — which is every tick of the drain
		// phase, where walking tens of thousands of idle trunks would
		// otherwise dominate the run.
		if fab.Net.QueuedPackets() > 0 {
			for _, tr := range fab.Trunks() {
				if q := tr.Link.QueueLen(); q > max {
					max = q
				}
			}
		}
		p.samples = append(p.samples, float64(max))
		if max > p.peak {
			p.peak = max
		}
		fab.Eng.SchedulePri(interval, sim.PriLast, tick)
	}
	fab.Eng.SchedulePri(interval, sim.PriLast, tick)
}

// merge folds one shard's series into the global one: all shards sample at
// the same virtual instants, so the fabric-wide max at tick t is the max over
// shards of each shard's local max at tick t.
func (p *scaleProbe) merge(shard *scaleProbe) {
	if shard.peak > p.peak {
		p.peak = shard.peak
	}
	for i, s := range shard.samples {
		if i == len(p.samples) {
			p.samples = append(p.samples, s)
		} else if s > p.samples[i] {
			p.samples[i] = s
		}
	}
}

// scaleAcc accumulates one shard's workload outcomes. Merging is
// order-insensitive: fct percentiles sort, byte and retx counters add, the
// makespan takes the max.
type scaleAcc struct {
	fcts      []float64
	delivered uint64
	lastDone  time.Duration
	retx      uint64
}

func (a *scaleAcc) merge(shard *scaleAcc) {
	a.fcts = append(a.fcts, shard.fcts...)
	a.delivered += shard.delivered
	if shard.lastDone > a.lastDone {
		a.lastDone = shard.lastDone
	}
	a.retx += shard.retx
}

// planCount is the total number of planned messages (the Expected column).
func planCount(plan [][]scaleMsg) int {
	total := 0
	for _, msgs := range plan {
		total += len(msgs)
	}
	return total
}

// scaleMTP is the MTP row's label; every other row carries its rival's
// registry label.
const scaleMTP = "MTP"

// RunScale runs the configured pattern under MTP and under the configured
// rival baseline on identical fabrics and traffic, fanning the two runs out
// via Sweep.
func RunScale(cfg ScaleConfig) ScaleResult {
	cfg = cfg.withDefaults()
	systems := []string{scaleMTP, baseline.MustRival(cfg.Baseline).Label}
	rows := Sweep(CapWorkers(cfg.Workers, cfg.Shards), systems, func(sys string) ScaleRow {
		return runScale(cfg, sys)
	})
	return ScaleResult{Config: cfg, Hosts: scaleHosts(cfg), Rows: rows}
}

// scaleDone reports one message fully acknowledged at virtual time now, with
// the retransmissions its transport attributes to it.
type scaleDone func(now time.Duration, retx uint64)

// scaleStart sends host src's idx-th planned message from this shard.
type scaleStart func(src, idx int, done scaleDone)

// runScale runs one system — MTP, or the configured rival under its label —
// over the plan. It is the only runner: the fabric is always a shard.Cluster
// (one shard is the single-engine run), every shard gets its own accumulator,
// probe and checker, and the row is always their merge.
func runScale(cfg ScaleConfig, system string) ScaleRow {
	var mk topo.PolicyFunc // nil: ECMP everywhere, what the rivals run over
	if system == scaleMTP {
		mk = func() simnet.ForwardPolicy { return simnet.NewMessageLB() }
	}
	cl := buildScaleCluster(cfg, mk)
	plan := scalePlan(cfg, cl.Shard(0).Fab.NumHosts())
	shared := check.NewMsgRegistry()
	type shardRun struct {
		acc          scaleAcc
		probe        scaleProbe
		chk          *check.Checker
		unattributed func() uint64
	}
	runs := make([]shardRun, cl.NumShards())
	for s := range runs {
		r, fab := &runs[s], cl.Shard(s).Fab
		// The network-level invariants (conservation, queue occupancy, ECN)
		// apply to every rival too; the MTP-specific ones simply never fire
		// without attached endpoints.
		if cfg.Check {
			r.chk = check.New(fab.Eng, fab.Net)
			r.chk.ShareMessages(shared)
		}
		var start scaleStart
		if system == scaleMTP {
			start, r.unattributed = installScaleMTP(cfg, fab, plan, r.chk)
		} else {
			start, r.unattributed = installScaleRival(cfg, fab, plan)
		}
		driveScalePlan(fab, plan, start, &r.acc)
		r.probe.start(fab, scaleSampleInterval)
	}
	st := cl.Run(cfg.Timeout)

	var acc scaleAcc
	var probe scaleProbe
	for s := range runs {
		runs[s].acc.retx += runs[s].unattributed()
		acc.merge(&runs[s].acc)
		probe.merge(&runs[s].probe)
	}
	row := scaleRow(cfg, system, &acc, planCount(plan), &probe)
	row.Events, row.Wall, row.Shards = st.Events, st.Wall, len(runs)
	row.Rounds, row.Crossings = st.Rounds, st.Crossings
	// Checkers fold in shard order so the rendered violation list is
	// deterministic.
	for _, r := range runs {
		if r.chk != nil {
			r.chk.Finalize()
			row.Checked = true
			row.Violations = append(row.Violations, r.chk.Violations()...)
			row.ViolationCount += r.chk.Count()
		}
	}
	return row
}

// driveScalePlan runs fab's share of the plan closed-loop: every owned host
// with planned messages sends them back to back, one outstanding, the next
// submitted when the previous is fully acknowledged. Outcomes land in acc.
func driveScalePlan(fab *topo.Fabric, plan [][]scaleMsg, start scaleStart, acc *scaleAcc) {
	var next func(src, idx int)
	next = func(src, idx int) {
		if idx >= len(plan[src]) {
			return
		}
		began := fab.Eng.Now()
		start(src, idx, func(now time.Duration, retx uint64) {
			acc.fcts = append(acc.fcts, float64((now - began).Microseconds()))
			acc.delivered += uint64(plan[src][idx].size)
			acc.lastDone = now
			acc.retx += retx
			next(src, idx+1)
		})
	}
	for i := range plan {
		if fab.OwnsHost(i) && len(plan[i]) > 0 {
			fab.Eng.Schedule(0, func() { next(i, 0) })
		}
	}
}

// installScaleMTP attaches an MTP endpoint to every host fab owns. Remote
// destinations are addressed by fab.HostID, which is valid whether or not the
// destination is materialized locally. MTP counts retransmissions per
// endpoint, not per message: done always reports zero, and the second result
// reads the endpoints' total after the run.
func installScaleMTP(cfg ScaleConfig, fab *topo.Fabric, plan [][]scaleMsg, chk *check.Checker) (scaleStart, func() uint64) {
	hosts := make([]*simhost.MTPHost, fab.NumHosts())
	pending := make([]map[uint64]scaleDone, fab.NumHosts()) // by message ID
	for i := range hosts {
		if !fab.OwnsHost(i) {
			continue
		}
		pending[i] = make(map[uint64]scaleDone)
		epCfg := core.Config{
			LocalPort: uint16(1000 + i), RTO: scaleRTO,
			OnMessageSent: func(m *core.OutMessage) {
				done := pending[i][m.ID]
				delete(pending[i], m.ID)
				done(fab.Eng.Now(), 0)
			},
		}
		if chk != nil {
			epCfg.Observer = chk
		}
		hosts[i] = simhost.AttachMTP(fab.Net, fab.Host(i), epCfg)
		if chk != nil {
			chk.AttachEndpoint(hosts[i].EP, fab.Host(i).ID())
		}
	}
	start := func(src, idx int, done scaleDone) {
		msg := plan[src][idx]
		m := hosts[src].EP.SendSynthetic(fab.HostID(msg.dst), uint16(1000+msg.dst), msg.size, core.SendOptions{})
		pending[src][m.ID] = done
	}
	retx := func() (n uint64) {
		for _, mh := range hosts {
			if mh != nil {
				n += mh.EP.Stats.PktsRetx
			}
		}
		return n
	}
	return start, retx
}

// installScaleRival wires the configured baseline onto fab's owned hosts
// (baseline.Wiring) and pre-creates the receiving side of every planned
// message they are the destination of. A message's retransmissions arrive
// with its completion; the second result reads what the wiring could not
// attribute to a completed message.
func installScaleRival(cfg ScaleConfig, fab *topo.Fabric, plan [][]scaleMsg) (scaleStart, func() uint64) {
	w := baseline.MustRival(cfg.Baseline).Wire(fab.Eng, fab, baseline.WireConfig{RTO: scaleRTO})
	// wireMsg derives a message's wire identifiers from the plan alone, so
	// the sending and the receiving shard agree without coordination. ID: low
	// 20 bits message index + 1, high bits source host. ECMP hashes it (and
	// the subflow IDs MPTCP makes of it): it must not change.
	wireMsg := func(src, idx int) baseline.Msg {
		return baseline.Msg{
			Src: src, Dst: plan[src][idx].dst, Size: plan[src][idx].size,
			ID: uint64(src)<<20 | uint64(idx+1), Stream: uint64(idx + 1),
		}
	}
	for src := range plan {
		for idx, msg := range plan[src] {
			if fab.OwnsHost(msg.dst) {
				w.Expect(wireMsg(src, idx))
			}
		}
	}
	start := func(src, idx int, done scaleDone) { w.Start(wireMsg(src, idx), done) }
	return start, w.Unreported
}

func scaleRow(cfg ScaleConfig, sys string, acc *scaleAcc, expected int, probe *scaleProbe) ScaleRow {
	// Queue statistics cover the busy period only: samples after the last
	// completion are idle fabric, not workload behavior.
	samples := probe.samples
	if acc.lastDone > 0 {
		if n := int(acc.lastDone/scaleSampleInterval) + 1; n < len(samples) {
			samples = samples[:n]
		}
	}
	row := ScaleRow{
		System:    sys,
		Completed: len(acc.fcts),
		Expected:  expected,
		P50us:     stats.Percentile(acc.fcts, 50),
		P99us:     stats.Percentile(acc.fcts, 99),
		QueuePeak: probe.peak,
		QueueP99:  stats.Percentile(samples, 99),
		Retx:      acc.retx,
	}
	if acc.lastDone > 0 {
		row.GoodputGbps = float64(acc.delivered) * 8 / acc.lastDone.Seconds() / 1e9
	}
	return row
}

// String renders the comparison. Deliberately free of wall-clock quantities:
// a sharded and an unsharded run of the same config must render identically
// (the determinism regression test compares these strings). PerfString has
// the timing side.
func (r ScaleResult) String() string {
	var b strings.Builder
	c := r.Config
	shape := fmt.Sprintf("%d leaves x %d spines x %d", c.Leaves, c.Spines, c.HostsPerLeaf)
	if c.Topo == "fattree" {
		shape = fmt.Sprintf("k=%d fat-tree", c.K)
	}
	fmt.Fprintf(&b, "Scale: %s on %s (%d hosts, %s links, %s pattern, %s msgs)\n",
		strings.Join(systemNames(r.Rows), " vs "), shape, r.Hosts,
		gbpsStr(scaleLinkRate), c.Pattern, scaleSizeStr(c.MsgSize))
	fmt.Fprintf(&b, "  %-10s %9s %12s %12s %9s %7s %8s %8s\n",
		"system", "completed", "p50 FCT(us)", "p99 FCT(us)", "goodput", "queue", "q-p99", "retx")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %4d/%4d %12.0f %12.0f %7.1fG %7d %8.0f %8d\n",
			row.System, row.Completed, row.Expected, row.P50us, row.P99us,
			row.GoodputGbps, row.QueuePeak, row.QueueP99, row.Retx)
	}
	for _, row := range r.Rows {
		if !row.Checked {
			continue
		}
		if row.ViolationCount == 0 {
			fmt.Fprintf(&b, "  invariants %-10s ok\n", row.System)
			continue
		}
		fmt.Fprintf(&b, "  invariants %-10s %d violation(s)\n", row.System, row.ViolationCount)
		writeViolations(&b, row.Violations)
	}
	return b.String()
}

// writeViolations lists the first invariant violations of a checked run,
// indented under the caller's verdict line.
func writeViolations(b *strings.Builder, vs []check.Violation) {
	for i, v := range vs {
		if i >= 8 {
			fmt.Fprintf(b, "    ... %d more\n", len(vs)-i)
			break
		}
		fmt.Fprintf(b, "    %s\n", v)
	}
}

// PerfString renders the engine-performance side of the result: events,
// wall clock, and throughput per system, with shard round/crossing counts
// when the run was parallel.
func (r ScaleResult) PerfString() string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  perf %-10s %d shard(s): %d events in %v (%.2fM events/s",
			row.System, row.Shards, row.Events, row.Wall.Round(time.Millisecond), row.EventsPerSec()/1e6)
		if row.Shards > 1 {
			fmt.Fprintf(&b, ", %d rounds, %d crossings", row.Rounds, row.Crossings)
		}
		fmt.Fprintf(&b, ")\n")
	}
	return b.String()
}

// scaleSizeStr renders one fixed message size (unlike fig6's sizeStr, which
// labels a distribution's range).
func scaleSizeStr(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func systemNames(rows []ScaleRow) []string {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.System
	}
	return names
}

// RunScaleHostSweep sweeps the fabric size (leaf-spine host counts, keeping
// the configured leaf/spine shape and growing hosts per leaf) through the
// parallel Sweep runner. Each point runs both systems sequentially inside
// its worker, so worker count never changes results.
func RunScaleHostSweep(workers int, hosts []int, base ScaleConfig) []ScaleResult {
	if len(hosts) == 0 {
		hosts = []int{32, 64, 128}
	}
	base = base.withDefaults()
	return Sweep(workers, hosts, func(n int) ScaleResult {
		cfg := base
		cfg.Workers = 1 // the sweep already fans out
		cfg.HostsPerLeaf = (n + cfg.Leaves - 1) / cfg.Leaves
		return RunScale(cfg)
	})
}

// sweepRival is the short name of the rival a sweep's points ran against,
// for the column headers (every point shares the sweep's base config).
func sweepRival(cfg ScaleConfig) string { return baseline.MustRival(cfg.Baseline).Short }

// ScaleSweepString renders the host-count sweep: MTP's and the rival's p99 FCT
// and goodput per point.
func ScaleSweepString(points []ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale sweep: p99 FCT (us) / goodput (Gbps) vs host count\n")
	if len(points) == 0 {
		return b.String()
	}
	rv := sweepRival(points[0].Config)
	fmt.Fprintf(&b, "  %-6s %10s %12s %10s %12s\n", "hosts", "MTP p99", rv+" p99", "MTP gbps", rv+" gbps")
	for _, p := range points {
		mtp, rival := p.Rows[0], p.Rows[1]
		fmt.Fprintf(&b, "  %-6d %10.0f %12.0f %10.1f %12.1f\n",
			p.Hosts, mtp.P99us, rival.P99us, mtp.GoodputGbps, rival.GoodputGbps)
	}
	return b.String()
}

// ScaleKPoint is one fat-tree radix's result (Rows[0] is MTP, Rows[1] the
// rival, Config.Shards the engines each ran on) plus what the sweep measures
// around it.
type ScaleKPoint struct {
	ScaleResult
	// Speedup is MTP wall clock at 1 shard divided by wall clock at
	// Config.Shards (0 when that is 1 — there is nothing to compare).
	Speedup float64
	// HeapMB is the Go heap in use right after this point's runs (MiB).
	// It is live-heap, not RSS: a scale ceiling indicator, not a precise
	// footprint — and with sweep workers > 1 concurrent points share it.
	HeapMB float64
}

// RunScaleKSweep sweeps fat-tree radices k (hosts = k³/4). Each point runs
// MTP and the rival at base.Shards shards and — when sharded — one extra
// single-engine MTP run to measure the parallel speedup on identical work.
// Points run sequentially when the per-point shard count already saturates
// the machine (CapWorkers).
func RunScaleKSweep(workers int, ks []int, base ScaleConfig) []ScaleKPoint {
	if len(ks) == 0 {
		ks = []int{4, 8, 16}
	}
	base = base.withDefaults()
	base.Topo = "fattree"
	return Sweep(CapWorkers(workers, base.Shards), ks, func(k int) ScaleKPoint {
		cfg := base
		cfg.K = k
		cfg.Workers = 1 // the sweep already fans out
		pt := ScaleKPoint{ScaleResult: RunScale(cfg)}
		if mtp := pt.Rows[0]; pt.Config.Shards > 1 && mtp.Wall > 0 {
			solo := pt.Config
			solo.Shards = 1
			pt.Speedup = float64(runScale(solo, scaleMTP).Wall) / float64(mtp.Wall)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		pt.HeapMB = float64(ms.HeapInuse) / (1 << 20)
		return pt
	})
}

// ScaleKSweepString renders the radix sweep; Mevents/s is the MTP run's
// aggregate event throughput.
func ScaleKSweepString(points []ScaleKPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fat-tree sweep: p99 FCT (us) / goodput (Gbps) vs radix, sharded engine\n")
	if len(points) == 0 {
		return b.String()
	}
	rv := sweepRival(points[0].Config)
	fmt.Fprintf(&b, "  %-4s %6s %7s %10s %12s %10s %12s %10s %8s %8s\n",
		"k", "hosts", "shards", "MTP p99", rv+" p99", "MTP gbps", rv+" gbps", "Mevents/s", "speedup", "heap-MB")
	for _, p := range points {
		speedup := "-"
		if p.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", p.Speedup)
		}
		mtp, rival := p.Rows[0], p.Rows[1]
		fmt.Fprintf(&b, "  %-4d %6d %7d %10.0f %12.0f %10.1f %12.1f %10.2f %8s %8.0f\n",
			p.Config.K, p.Hosts, p.Config.Shards, mtp.P99us, rival.P99us,
			mtp.GoodputGbps, rival.GoodputGbps, mtp.EventsPerSec()/1e6, speedup, p.HeapMB)
	}
	return b.String()
}
