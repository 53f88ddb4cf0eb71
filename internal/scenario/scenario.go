// Package scenario is the randomized counterpart of the invariant harness in
// internal/check: a seeded generator samples small fabrics (internal/topo),
// workloads, and fault schedules (internal/fault); a runner executes each
// sampled scenario with every MTP endpoint and the whole network under the
// invariant checker; and a shrinker reduces a violating scenario — fewer
// hosts, fewer faults, fewer messages, a shorter horizon — to a minimal
// configuration that still reproduces, printable as a one-line `mtpexp -exp
// scenario` row.
//
// Everything is a pure function of (seed, Overrides): the same pair always
// generates, runs, and fails identically, which is what makes a shrunken seed
// a durable regression test (see regress_test.go).
package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/cc"
	"mtp/internal/check"
	"mtp/internal/core"
	"mtp/internal/fault"
	"mtp/internal/offload"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
	"mtp/internal/topo"
)

// Overrides caps the generator's sampled dimensions. Zero values leave a
// dimension free (MaxFaults uses -1 for "free" so it can be capped to zero).
// The shrinker works entirely in this space: it never edits a Spec, only
// tightens caps and regenerates from the same seed.
type Overrides struct {
	// Topo forces the topology ("leafspine" or "fattree"); empty samples it.
	Topo string
	// Leaves/Spines/HostsPerLeaf cap the leaf-spine shape when positive.
	Leaves, Spines, HostsPerLeaf int
	// MaxFaults caps the fault count when >= 0; -1 leaves it free.
	MaxFaults int
	// Messages caps the per-host message count when positive.
	Messages int
	// Horizon caps the simulated duration when positive.
	Horizon time.Duration
	// Offload opts in to placing a sampled in-network device (cache or
	// detect-mode IDS) on one fabric switch, so sweeps exercise interposers —
	// including crash-reset — under the full invariant set. Off by default;
	// its rng draws come after every other dimension's, so enabling it never
	// perturbs the rest of the sampled scenario.
	Offload bool
	// Rival opts in to sampling the transport under test: instead of MTP
	// endpoints, the sampled workload runs over one of the registered rival
	// baselines (baseline.RivalNames) with the network-level invariants still
	// checked. Its rng draw comes after every other dimension's
	// (including Offload's), so enabling it never perturbs the rest of the
	// sampled scenario and pre-existing repro seeds stay valid.
	Rival bool
}

// NoOverrides returns the all-free override set.
func NoOverrides() Overrides { return Overrides{MaxFaults: -1} }

// MsgSpec is one planned message.
type MsgSpec struct {
	Src, Dst int
	Size     int
	Start    time.Duration
	// Payload selects a real (CRC-checked) payload over a synthetic one.
	Payload bool
	Pri     uint8
}

// FaultSpec is one planned fault. Targets are indices resolved modulo the
// available target set at run time, so the same spec stays valid as the
// shrinker removes hosts and trunks.
type FaultSpec struct {
	// Kind is one of linkdown, blackhole, crash, flap, degrade, corrupt,
	// duplicate.
	Kind string
	// Target indexes the trunk list (or the switch list for crash).
	Target int
	// Edge targets a host access link instead of a trunk.
	Edge    bool
	At, Dur time.Duration
	// P is the per-packet probability (corrupt, duplicate) or the rate
	// factor (degrade).
	P float64
}

// Spec is one fully sampled scenario.
type Spec struct {
	Seed int64

	Topo                         string
	Leaves, Spines, HostsPerLeaf int
	K                            int // fat-tree radix
	Hosts                        int

	Policy string // "ecmp" or "msglb"
	CC     cc.Kind
	// MaxWindowMSS caps the congestion window in MSS units; 0 = unbounded.
	MaxWindowMSS int
	QueueCap     int
	ECNK         int

	Horizon time.Duration
	Msgs    []MsgSpec
	Faults  []FaultSpec

	// Offload names the sampled in-network device ("cache" or "ids"); empty
	// means none. OffloadTarget indexes the switch it lands on.
	Offload       string
	OffloadTarget int

	// Rival names the sampled baseline transport running the workload in
	// place of MTP (one of baseline.RivalNames); empty runs MTP endpoints as
	// usual.
	Rival string
}

// msgSizes is the sampled message-size menu: sub-MSS, one MSS, small
// multi-packet, and bulk.
var msgSizes = []int{200, 1460, 4 * 1460, 20 * 1460, 64 << 10, 256 << 10}

var faultKinds = []string{"linkdown", "blackhole", "crash", "flap", "degrade", "corrupt", "duplicate"}

// Generate samples the scenario for (seed, ov). It is deterministic: the rng
// stream is consumed in a fixed order and overrides only clamp the results.
func Generate(seed int64, ov Overrides) Spec {
	rng := rand.New(rand.NewSource(seed))
	sp := Spec{Seed: seed, K: 4}

	sp.Topo = "leafspine"
	if rng.Intn(4) == 0 {
		sp.Topo = "fattree"
	}
	sp.Leaves = 2 + rng.Intn(3)       // 2..4
	sp.Spines = 1 + rng.Intn(3)       // 1..3
	sp.HostsPerLeaf = 1 + rng.Intn(3) // 1..3
	if ov.Topo != "" {
		sp.Topo = ov.Topo
	}
	if ov.Leaves > 0 && sp.Leaves > ov.Leaves {
		sp.Leaves = ov.Leaves
	}
	if ov.Spines > 0 && sp.Spines > ov.Spines {
		sp.Spines = ov.Spines
	}
	if ov.HostsPerLeaf > 0 && sp.HostsPerLeaf > ov.HostsPerLeaf {
		sp.HostsPerLeaf = ov.HostsPerLeaf
	}
	if sp.Leaves < 2 {
		sp.Leaves = 2 // at least two racks, so traffic crosses the fabric
	}
	if sp.Spines < 1 {
		sp.Spines = 1
	}
	if sp.HostsPerLeaf < 1 {
		sp.HostsPerLeaf = 1
	}
	if sp.Topo == "fattree" {
		sp.Hosts = sp.K * sp.K * sp.K / 4
	} else {
		sp.Hosts = sp.Leaves * sp.HostsPerLeaf
	}

	sp.QueueCap = 32 * (1 + rng.Intn(4)) // 32..128 packets
	sp.ECNK = sp.QueueCap / 4
	sp.Policy = "ecmp"
	if rng.Intn(2) == 0 {
		sp.Policy = "msglb"
	}
	// Only ECN-driven algorithms: fabric trunks stamp ECN feedback (not
	// delay or explicit rates), so Swift/RCP would free-run here.
	ccKinds := []cc.Kind{cc.KindDCTCP, cc.KindAIMD, cc.KindDCQCN}
	sp.CC = ccKinds[rng.Intn(len(ccKinds))]
	// Window caps stay above the 10-MSS initial window (algorithms start at
	// InitWindow unclamped).
	sp.MaxWindowMSS = []int{0, 32, 64}[rng.Intn(3)]

	sp.Horizon = time.Duration(10+rng.Intn(31)) * time.Millisecond // 10..40ms
	if ov.Horizon > 0 && sp.Horizon > ov.Horizon {
		sp.Horizon = ov.Horizon
	}
	if sp.Horizon < 2*time.Millisecond {
		sp.Horizon = 2 * time.Millisecond
	}

	for src := 0; src < sp.Hosts; src++ {
		n := 1 + rng.Intn(4)
		if ov.Messages > 0 && n > ov.Messages {
			n = ov.Messages
		}
		for j := 0; j < n; j++ {
			dst := rng.Intn(sp.Hosts - 1)
			if dst >= src {
				dst++
			}
			size := msgSizes[rng.Intn(len(msgSizes))]
			sp.Msgs = append(sp.Msgs, MsgSpec{
				Src: src, Dst: dst, Size: size,
				Start:   time.Duration(rng.Int63n(int64(sp.Horizon / 2))),
				Payload: size <= 64<<10,
				Pri:     uint8(rng.Intn(3)),
			})
		}
	}

	nf := rng.Intn(4) // 0..3
	if ov.MaxFaults >= 0 && nf > ov.MaxFaults {
		nf = ov.MaxFaults
	}
	for i := 0; i < nf; i++ {
		f := FaultSpec{
			Kind:   faultKinds[rng.Intn(len(faultKinds))],
			Target: rng.Intn(1 << 16),
			Edge:   rng.Intn(4) == 0,
			At:     time.Millisecond + time.Duration(rng.Int63n(int64(sp.Horizon/2))),
		}
		if rng.Intn(3) != 0 { // 1 in 3 faults is permanent
			f.Dur = time.Millisecond + time.Duration(rng.Int63n(int64(sp.Horizon/4)))
		}
		switch f.Kind {
		case "corrupt":
			f.P = 0.01 + rng.Float64()*0.2
		case "duplicate":
			f.P = 0.01 + rng.Float64()*0.1
		case "degrade":
			f.P = 0.1 + rng.Float64()*0.5
		case "flap":
			if f.Dur <= 0 {
				f.Dur = time.Millisecond
			}
		}
		sp.Faults = append(sp.Faults, f)
	}

	// Offload placement draws come last, and only when opted in, so every
	// run without the opt-in consumes an identical rng stream — shrunken
	// repro seeds recorded before this dimension existed stay valid.
	if ov.Offload {
		sp.Offload = []string{"cache", "ids"}[rng.Intn(2)]
		sp.OffloadTarget = rng.Intn(1 << 16)
	}
	// The rival draw comes last of all, for the same seed-stability reason.
	if ov.Rival {
		names := baseline.RivalNames()
		sp.Rival = names[rng.Intn(len(names))]
	}
	return sp
}

// Result is one scenario run under the invariant checker.
type Result struct {
	Spec Spec
	// Violations holds the recorded invariant failures (capped; Count is the
	// true total).
	Violations []check.Violation
	Count      int
	// Delivered/Completed/Expected summarize message progress (informational;
	// a fault schedule may legitimately prevent completion within the
	// horizon).
	Delivered, Completed, Expected int
	Events                         uint64
}

// Run generates and executes the scenario for (seed, ov).
func Run(seed int64, ov Overrides) Result {
	return RunSpec(Generate(seed, ov))
}

// RunSpec executes one sampled scenario: build the fabric, install the
// checker, attach MTP endpoints, schedule the workload and faults, run to
// the horizon, and collect violations.
func RunSpec(sp Spec) Result {
	fab := buildFabric(sp)
	installOffload(sp, fab)
	chk := check.New(fab.Eng, fab.Net)
	if sp.Rival != "" {
		return runRivalSpec(sp, fab, chk)
	}
	n := fab.NumHosts()

	res := Result{Spec: sp, Expected: len(sp.Msgs)}
	hosts := make([]*simhost.MTPHost, n)
	var completed int
	for i := 0; i < n; i++ {
		cfg := core.Config{
			LocalPort:    uint16(1000 + i),
			RTO:          time.Millisecond,
			FailoverRTOs: 2,
			CC:           sp.CC,
			CCConfig: cc.Config{
				LineRate:  10e9,
				MaxWindow: float64(sp.MaxWindowMSS) * 1460,
			},
			Observer:      chk,
			OnMessage:     func(m *core.InMessage) { res.Delivered++ },
			OnMessageSent: func(m *core.OutMessage) { completed++ },
		}
		hosts[i] = simhost.AttachMTP(fab.Net, fab.Host(i), cfg)
		chk.AttachEndpoint(hosts[i].EP, fab.Host(i).ID())
	}

	inj := fault.NewInjector(fab.Eng, sp.Seed)
	applyFaults(sp, fab, inj)

	// Payloads are generated outside the spec (they would bloat it) but
	// deterministically from the seed, in message order.
	payloadRng := rand.New(rand.NewSource(sp.Seed ^ 0x5ced))
	for _, ms := range sp.Msgs {
		src := hosts[ms.Src]
		dstID := fab.Host(ms.Dst).ID()
		dstPort := uint16(1000 + ms.Dst)
		var data []byte
		if ms.Payload {
			data = make([]byte, ms.Size)
			payloadRng.Read(data)
		}
		size, pri := ms.Size, ms.Pri
		fab.Eng.ScheduleAt(ms.Start, func() {
			if data != nil {
				src.EP.Send(dstID, dstPort, data, core.SendOptions{Priority: pri})
			} else {
				src.EP.SendSynthetic(dstID, dstPort, size, core.SendOptions{Priority: pri})
			}
		})
	}

	fab.Eng.Run(sp.Horizon)
	chk.Finalize()
	res.Violations = chk.Violations()
	res.Count = chk.Count()
	res.Completed = completed
	res.Events = fab.Eng.Processed()
	return res
}

func buildFabric(sp Spec) *topo.Fabric {
	link := topo.LinkSpec{
		Rate: 10e9, Delay: time.Microsecond,
		QueueCap: sp.QueueCap, ECNThreshold: sp.ECNK,
	}
	var mk topo.PolicyFunc
	if sp.Policy == "msglb" {
		mk = func() simnet.ForwardPolicy { return simnet.NewMessageLB() }
	}
	if sp.Topo == "fattree" {
		return topo.NewFatTree(topo.FatTreeConfig{
			K: sp.K, HostLink: link, FabricLink: link, Policy: mk, Seed: sp.Seed,
		})
	}
	return topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: sp.Leaves, Spines: sp.Spines, HostsPerLeaf: sp.HostsPerLeaf,
		HostLink: link, FabricLink: link, Policy: mk, Seed: sp.Seed,
	})
}

// installOffload places the sampled device on a fabric switch. Only devices
// transparent to arbitrary traffic are eligible: the cache consumes packets
// only on a KVS cache hit (which the random workload cannot construct) and a
// detect-mode IDS never consumes, so every transport invariant must keep
// holding with the interposer in the path — and a crash fault landing on the
// same switch exercises InterposerReset under the checker.
func installOffload(sp Spec, fab *topo.Fabric) {
	if sp.Offload == "" {
		return
	}
	sws := append([]*simnet.Switch{}, fab.Switches(topo.TierSpine)...)
	sws = append(sws, fab.Switches(topo.TierAgg)...)
	sws = append(sws, fab.Switches(topo.TierLeaf)...)
	if len(sws) == 0 {
		return
	}
	sw := sws[sp.OffloadTarget%len(sws)]
	switch sp.Offload {
	case "cache":
		offload.NewCache(sw, 64)
	case "ids":
		offload.NewIDS(sw, [][]byte{[]byte("MTP-IDS-SIGNATURE-0xDEADBEEF")}, false)
	}
}

func applyFaults(sp Spec, fab *topo.Fabric, inj *fault.Injector) {
	trunks := fab.Trunks()
	for _, f := range sp.Faults {
		if f.Kind == "crash" {
			sws := append([]*simnet.Switch{}, fab.Switches(topo.TierSpine)...)
			sws = append(sws, fab.Switches(topo.TierAgg)...)
			if len(sws) == 0 {
				sws = fab.Switches(topo.TierLeaf)
			}
			if len(sws) > 0 {
				inj.CrashSwitch(sws[f.Target%len(sws)], f.At, f.Dur)
			}
			continue
		}
		var l *simnet.Link
		if f.Edge {
			up, down := fab.HostLinks(f.Target % fab.NumHosts())
			if (f.Target/fab.NumHosts())%2 == 0 {
				l = up
			} else {
				l = down
			}
		} else if len(trunks) > 0 {
			l = trunks[f.Target%len(trunks)].Link
		} else {
			up, _ := fab.HostLinks(f.Target % fab.NumHosts())
			l = up
		}
		switch f.Kind {
		case "linkdown":
			inj.LinkDown(l, f.At, f.Dur)
		case "blackhole":
			inj.Blackhole(l, f.At, f.Dur)
		case "flap":
			inj.FlapLink(l, f.At, f.Dur, f.Dur, sp.Horizon)
		case "degrade":
			inj.Degrade(l, f.P, f.At, f.Dur)
		case "corrupt":
			inj.Corrupt(l, f.P, f.At, f.Dur)
		case "duplicate":
			inj.Duplicate(l, f.P, f.At, f.Dur)
		}
	}
}

// Shrink greedily minimizes a violating (seed, ov): it tightens one override
// at a time — simpler topology, fewer leaves/spines/hosts, fewer messages,
// fewer faults, a shorter horizon — keeping a candidate only if the
// regenerated scenario still violates, and repeats until no single reduction
// reproduces. Returns the minimal overrides and that run's result. When the
// initial run does not violate, it is returned unchanged.
func Shrink(seed int64, ov Overrides) (Overrides, Result) {
	best := Run(seed, ov)
	if best.Count == 0 {
		return ov, best
	}
	// Pin every free dimension to its sampled value so each can step down.
	sp := best.Spec
	cur := Overrides{
		Topo: sp.Topo, Leaves: sp.Leaves, Spines: sp.Spines,
		HostsPerLeaf: sp.HostsPerLeaf, MaxFaults: len(sp.Faults),
		Messages: maxPerHost(sp), Horizon: sp.Horizon, Offload: ov.Offload,
		Rival: ov.Rival,
	}
	try := func(cand Overrides) bool {
		if r := Run(seed, cand); r.Count > 0 {
			cur, best = cand, r
			return true
		}
		return false
	}
	for improved := true; improved; {
		improved = false
		if cur.Topo == "fattree" {
			c := cur
			c.Topo = "leafspine"
			improved = try(c) || improved
		}
		if cur.Leaves > 2 {
			c := cur
			c.Leaves--
			improved = try(c) || improved
		}
		if cur.Spines > 1 {
			c := cur
			c.Spines--
			improved = try(c) || improved
		}
		if cur.HostsPerLeaf > 1 {
			c := cur
			c.HostsPerLeaf--
			improved = try(c) || improved
		}
		if cur.Messages > 1 {
			c := cur
			c.Messages--
			improved = try(c) || improved
		}
		if cur.MaxFaults > 0 {
			c := cur
			c.MaxFaults--
			improved = try(c) || improved
		}
		if cur.Horizon >= 4*time.Millisecond {
			c := cur
			c.Horizon = cur.Horizon / 2
			improved = try(c) || improved
		}
		// Dropping the offload device only removes the trailing rng draws,
		// so the rest of the scenario regenerates identically.
		if cur.Offload {
			c := cur
			c.Offload = false
			improved = try(c) || improved
		}
		// Likewise the rival draw is last: disabling it reruns the identical
		// scenario with MTP endpoints, telling us whether the violation is
		// the rival transport's or the network's.
		if cur.Rival {
			c := cur
			c.Rival = false
			improved = try(c) || improved
		}
	}
	return cur, best
}

func maxPerHost(sp Spec) int {
	per := make(map[int]int)
	max := 1
	for _, m := range sp.Msgs {
		per[m.Src]++
		if per[m.Src] > max {
			max = per[m.Src]
		}
	}
	return max
}

// Row is what a `mtpexp -exp scenario` row binds (the grammar is in
// internal/platform's package comment): the first seed, how many consecutive
// seeds to run, and the caps, whose keys let a shrunken repro replay exactly.
type Row struct {
	Seed      int64
	Scenarios int
	Overrides
}

// NewRow is the row before any cell is bound: seed 1, one scenario, all free.
func NewRow() Row { return Row{Seed: 1, Scenarios: 1, Overrides: NoOverrides()} }

// RunRow runs the row's seeds under the invariant harness and renders the
// outcome: the full result of a single seed, one line per passing seed of
// several, and for every violating seed its shrunken result and repro line.
func RunRow(r Row) (text string, failed bool) {
	var b strings.Builder
	for s := r.Seed; s < r.Seed+int64(r.Scenarios); s++ {
		res := Run(s, r.Overrides)
		switch {
		case res.Count > 0:
			failed = true
			min, shrunk := Shrink(s, r.Overrides)
			fmt.Fprintf(&b, "%sshrunken repro: %s\n", shrunk, ReproLine(s, min))
		case r.Scenarios == 1:
			b.WriteString(res.String())
		default:
			fmt.Fprintf(&b, "scenario seed=%d: ok (%d/%d delivered, %d events)\n",
				s, res.Delivered, res.Expected, res.Events)
		}
	}
	return b.String(), failed
}

// ReproLine renders the one-line mtpexp invocation that replays (seed, ov):
// a row of Row's keys, which binds back to the same pair.
func ReproLine(seed int64, ov Overrides) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mtpexp -exp scenario seed=%d", seed)
	if ov.Topo != "" {
		fmt.Fprintf(&b, " topo=%s", ov.Topo)
	}
	for _, c := range []struct {
		key string
		n   int
	}{{"leaves", ov.Leaves}, {"spines", ov.Spines}, {"hostsperleaf", ov.HostsPerLeaf}, {"messages", ov.Messages}} {
		if c.n > 0 {
			fmt.Fprintf(&b, " %s=%d", c.key, c.n)
		}
	}
	if ov.MaxFaults >= 0 {
		fmt.Fprintf(&b, " maxfaults=%d", ov.MaxFaults)
	}
	if ov.Horizon > 0 {
		fmt.Fprintf(&b, " horizon=%v", ov.Horizon)
	}
	if ov.Offload {
		b.WriteString(" offload=true")
	}
	if ov.Rival {
		b.WriteString(" rival=true")
	}
	return b.String()
}

// String summarizes the run on a few lines: shape, progress, and the first
// violations.
func (r Result) String() string {
	var b strings.Builder
	sp := r.Spec
	shape := fmt.Sprintf("%d leaves x %d spines x %d hosts/leaf", sp.Leaves, sp.Spines, sp.HostsPerLeaf)
	if sp.Topo == "fattree" {
		shape = fmt.Sprintf("k=%d fat-tree", sp.K)
	}
	dev := ""
	if sp.Offload != "" {
		dev = fmt.Sprintf(", offload=%s", sp.Offload)
	}
	if sp.Rival != "" {
		dev += fmt.Sprintf(", rival=%s", sp.Rival)
	}
	fmt.Fprintf(&b, "scenario seed=%d: %s (%d hosts), cc=%s lb=%s%s, %d msgs, %d faults, horizon %v\n",
		sp.Seed, shape, sp.Hosts, sp.CC, sp.Policy, dev, len(sp.Msgs), len(sp.Faults), sp.Horizon)
	fmt.Fprintf(&b, "  %d/%d delivered, %d completed, %d events, %d violation(s)\n",
		r.Delivered, r.Expected, r.Completed, r.Events, r.Count)
	for i, v := range r.Violations {
		if i >= 8 {
			fmt.Fprintf(&b, "  ... %d more\n", len(r.Violations)-i)
			break
		}
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}
