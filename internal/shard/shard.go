// Package shard runs one simulated fabric on several cooperating
// discrete-event engines — one per fat-tree pod group — to push experiment
// scale past what a single core can hold, without giving up the repo's
// central property: bit-identical, seed-reproducible runs.
//
// The synchronization scheme is conservative (no rollback). Every shard
// repeatedly (1) reports the earliest thing it could still do — its next
// local event or the earliest arrival in its outgoing packet batches — and
// hands each neighbour the batch destined for it; (2) takes the global
// minimum T of all reports; (3) runs its engine through a window opening at
// T. The lookahead L is the minimum propagation delay of any
// boundary-crossing link (topo.ShardPlan.Lookahead): a packet a neighbour
// transmits at or after its report spends at least that long on the wire.
// The classic window is [T, T+L); this implementation commits a batched
// window instead — each shard runs until the earliest instant any other
// shard can still act, plus L — which collapses the many rounds
// where one busy shard grinds through dense local work while the others sit
// on sparse timers (see Cluster.MaxBatch for the safety argument and the
// knob that restores single-window rounds). Windows jump — T is the global
// next-event time, not a fixed cadence — so idle stretches cost one barrier
// round instead of horizon/lookahead rounds.
//
// Determinism does not come from the barrier alone: within one timestamp,
// a single engine orders events by scheduling history, which shards cannot
// reproduce. The engine therefore orders equal-time events by an explicit
// priority first (sim's (time, pri, seq) key), and every topo-built link
// schedules its deliveries at priority DeliverPriBase+rank, with ranks
// assigned by global construction order. Cross-shard arrivals are injected
// through mirror links carrying the same rank, so the merged order is the
// unsharded order, event for event. Each shard checker still sees a legal
// serial execution, and internal/check's cross-shard accounting
// (ShardAccountant, MsgRegistry) keeps conservation and exactly-once
// invariants network-wide.
package shard

import (
	"fmt"
	"math"
	"time"

	"mtp/internal/simnet"
	"mtp/internal/topo"
	"mtp/internal/wire"
)

// never is the report of a shard with nothing left to do.
const never = time.Duration(math.MaxInt64)

// xfer is one packet crossing a shard boundary: the cut link's global rank,
// the absolute arrival time, and the packet's payload fields. The header is a
// clone — the original lives in the pooled packet, which the sending shard
// recycles the moment DeliverRemote returns. Data and Payload are handed over
// by pointer, not copied: nothing on the sending side touches them after the
// delivery that captured them here. A Payload the packet owns
// (simnet.OwnedPayload) moves rather than being shared: DeliverRemote takes it
// out of the packet before releasing it, and the packet inject builds owns it
// from then on. The channel exchange provides the happens-before edge that
// makes the handoff safe.
type xfer struct {
	rank int
	at   time.Duration

	src, dst simnet.NodeID
	size     int
	hdr      *wire.Header
	payload  any
	data     []byte

	ce, ecnCapable, trimmed, corrupted bool
	tenant                             int
	flowID                             uint64
}

// roundMsg is one shard's per-neighbour barrier message: its report, the
// batch of packets headed that way, and a spent batch buffer flowing back to
// its original owner. The recycle field is the allocation story for the
// steady state: the receiver of a batch returns its backing array (emptied)
// on the next round, so each directed pair settles into two alternating
// buffers and the exchange stops allocating entirely.
type roundMsg struct {
	next    time.Duration
	batch   []xfer
	recycle []xfer
}

// Shard is one partition: a partial fabric (owned pods + cores, with mirror
// links at the boundary) on its own engine.
type Shard struct {
	Index int
	Fab   *topo.Fabric
	Cut   *topo.ShardCut

	outbox    [][]xfer // per destination shard, filled during the window
	spent     [][]xfer // per source shard, consumed batches owed back
	crossings uint64
	rounds    uint64
}

// sink is the simnet.RemoteHook for one shard: it captures boundary
// deliveries into the outbox instead of scheduling them locally.
type sink struct{ s *Shard }

// DeliverRemote implements simnet.RemoteHook.
func (sk sink) DeliverRemote(l *simnet.Link, at time.Duration, pkt *simnet.Packet) {
	port, ok := sk.s.Cut.Out[l]
	if !ok {
		panic(fmt.Sprintf("shard: link %s has a remote hook but no cut port", l.Name()))
	}
	var hdr *wire.Header
	if pkt.Hdr != nil {
		hdr = pkt.Hdr.Clone()
	}
	x := xfer{
		rank: port.Rank, at: at,
		src: pkt.Src, dst: pkt.Dst, size: pkt.Size,
		hdr: hdr, payload: pkt.Payload, data: pkt.Data,
		ce: pkt.CE, ecnCapable: pkt.ECNCapable,
		trimmed: pkt.Trimmed, corrupted: pkt.Corrupted,
		tenant: pkt.Tenant, flowID: pkt.FlowID,
	}
	sk.s.outbox[port.DstShard] = append(sk.s.outbox[port.DstShard], x)
	pkt.Payload = nil // it crosses with x: the release must not recycle it
	sk.s.Fab.Net.ReleasePacket(pkt)
	// This crossing can wake its destination at x.at — earlier than that
	// shard's barrier report promised — and the earliest echo lands here at
	// x.at + lookahead. Shrink the current batched window to that point:
	// everything already executed predates it (the crossing just departed),
	// so the committed prefix stays safe. Under single-window rounds the
	// bound is never binding (arrivals sit a full lookahead past the window
	// end), which is exactly why unbatched runs never needed it.
	sk.s.Fab.Eng.TightenRunLimit(at + sk.s.Cut.Lookahead)
}

// inject materializes a received batch in this shard: each packet is
// allocated from the local pool and scheduled for delivery off the mirror
// link at its recorded arrival time. The mirror's rank-keyed priority slots
// it into exactly the position the unsharded engine would have used; batch
// order is irrelevant because no two arrivals share (time, rank).
func (s *Shard) inject(batch []xfer) {
	for i := range batch {
		x := &batch[i]
		mirror := s.Cut.In[x.rank]
		if mirror == nil {
			panic(fmt.Sprintf("shard %d: no mirror link for rank %d", s.Index, x.rank))
		}
		pkt := s.Fab.Net.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Size = x.src, x.dst, x.size
		if x.hdr != nil {
			pkt.SetHeader(x.hdr)
		}
		pkt.Payload, pkt.Data = x.payload, x.data
		pkt.CE, pkt.ECNCapable = x.ce, x.ecnCapable
		pkt.Trimmed, pkt.Corrupted = x.trimmed, x.corrupted
		pkt.Tenant, pkt.FlowID = x.tenant, x.flowID
		s.Fab.Net.InjectDeliver(mirror, x.at, pkt)
		s.crossings++
	}
}

// report is the earliest time anything can still happen because of this
// shard: its next local event or the earliest arrival it is about to hand a
// neighbour. The outgoing minimum is also returned separately — the batched
// window bound needs it (see runShard), because handed-over arrivals can
// wake a neighbour earlier than that neighbour's own report admits.
func (s *Shard) report() (next, outMin time.Duration) {
	next, outMin = never, never
	if at, ok := s.Fab.Eng.NextEventAt(); ok {
		next = at
	}
	for _, batch := range s.outbox {
		for i := range batch {
			if batch[i].at < outMin {
				outMin = batch[i].at
			}
		}
	}
	if outMin < next {
		next = outMin
	}
	return next, outMin
}

// Cluster is a set of shards jointly simulating one fabric.
type Cluster struct {
	plan   topo.ShardPlan
	shards []*Shard
	// chans[i][j] carries shard i's per-round message to shard j. Buffered
	// by one so every shard can send all its messages before receiving any —
	// the exchange doubles as the barrier.
	chans [][]chan roundMsg

	// MaxBatch bounds how many lookahead windows one barrier round may
	// commit. Each round, a shard may safely run past the classic window
	// [T, T+L) all the way to min(min_{j≠s} next_j, outMin_s)+L — the
	// earliest instant any OTHER shard can still act, counting both their
	// reports and the batches this shard just handed them — because
	// anything born there spends at least the lookahead L on the wire
	// before it can land here (see runShard for the full argument).
	// MaxBatch <= 0 (the default) lets the bound float freely; MaxBatch ==
	// 1 reproduces the unbatched schedule exactly, window for window —
	// useful for equivalence tests and bisection.
	MaxBatch int
}

// NewFatTreeCluster partitions cfg across shards engines. Shard 0's fabric
// is returned by Shard(0), etc.; callers attach endpoints to each shard's
// owned hosts (Fabric.OwnsHost) and schedule initial work before Run.
func NewFatTreeCluster(cfg topo.FatTreeConfig, shards int) *Cluster {
	plan := topo.PlanFatTreeShards(cfg, shards)
	return newCluster(plan, func(s int, remote simnet.RemoteHook) (*topo.Fabric, *topo.ShardCut) {
		return topo.NewFatTreeShard(cfg, plan, s, remote)
	})
}

// NewLeafSpineCluster partitions cfg rack-wise across shards engines: each
// shard owns a contiguous block of leaves with their hosts, spines are dealt
// round-robin, and the leaf↔spine trunks form the cut (see
// topo.PlanLeafSpineShards). Usage is identical to NewFatTreeCluster.
func NewLeafSpineCluster(cfg topo.LeafSpineConfig, shards int) *Cluster {
	plan := topo.PlanLeafSpineShards(cfg, shards)
	return newCluster(plan, func(s int, remote simnet.RemoteHook) (*topo.Fabric, *topo.ShardCut) {
		return topo.NewLeafSpineShard(cfg, plan, s, remote)
	})
}

// newCluster assembles the shard array and barrier channels around a
// topology-specific slice builder.
func newCluster(plan topo.ShardPlan, build func(s int, remote simnet.RemoteHook) (*topo.Fabric, *topo.ShardCut)) *Cluster {
	shards := plan.Shards
	c := &Cluster{plan: plan, shards: make([]*Shard, shards), chans: make([][]chan roundMsg, shards)}
	for i := 0; i < shards; i++ {
		c.chans[i] = make([]chan roundMsg, shards)
		for j := 0; j < shards; j++ {
			if i != j {
				c.chans[i][j] = make(chan roundMsg, 1)
			}
		}
	}
	for s := 0; s < shards; s++ {
		sh := &Shard{Index: s, outbox: make([][]xfer, shards), spent: make([][]xfer, shards)}
		sh.Fab, sh.Cut = build(s, sink{sh})
		c.shards[s] = sh
	}
	return c
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// RunStats summarizes one parallel run.
type RunStats struct {
	// Events is the total events executed across all shards.
	Events uint64
	// Rounds is the number of barrier rounds.
	Rounds uint64
	// Crossings is the number of packets that crossed a shard boundary.
	Crossings uint64
	// Wall is the real time the parallel run took.
	Wall time.Duration
}

// Run executes the cluster to the horizon (inclusive, matching
// sim.Engine.Run semantics) and returns aggregate statistics. One goroutine
// per shard; Run returns when every shard has passed the horizon.
func (c *Cluster) Run(horizon time.Duration) RunStats {
	start := time.Now()
	if len(c.shards) == 1 {
		s := c.shards[0]
		s.Fab.Eng.Run(horizon)
		return RunStats{Events: s.Fab.Eng.Processed(), Rounds: 1, Wall: time.Since(start)}
	}
	if c.plan.Lookahead <= 0 {
		panic("shard: non-positive lookahead")
	}
	done := make(chan struct{})
	for _, s := range c.shards {
		go func(s *Shard) {
			defer func() { done <- struct{}{} }()
			c.runShard(s, horizon)
		}(s)
	}
	for range c.shards {
		<-done
	}
	st := RunStats{Wall: time.Since(start), Rounds: c.shards[0].rounds}
	for _, s := range c.shards {
		st.Events += s.Fab.Eng.Processed()
		st.Crossings += s.crossings
	}
	return st
}

func (c *Cluster) runShard(s *Shard, horizon time.Duration) {
	eng := s.Fab.Eng
	L := c.plan.Lookahead
	for {
		next, outMin := s.report()
		// Exchange: send every neighbour our report and its batch, then
		// collect theirs. The one-slot channel buffers make the full send
		// phase non-blocking, so the pairwise exchange is deadlock-free and
		// acts as the barrier. Each message also carries back the batch
		// buffer consumed from that neighbour last round.
		for j := range c.shards {
			if j == s.Index {
				continue
			}
			c.chans[s.Index][j] <- roundMsg{next: next, batch: s.outbox[j], recycle: s.spent[j]}
			s.outbox[j] = nil
			s.spent[j] = nil
		}
		T := next
		minOther := never
		for j := range c.shards {
			if j == s.Index {
				continue
			}
			m := <-c.chans[j][s.Index]
			if m.next < T {
				T = m.next
			}
			if m.next < minOther {
				minOther = m.next
			}
			s.inject(m.batch)
			if m.batch != nil {
				// Hand the buffer back next round; clear it first so the
				// consumed headers and payloads are not pinned meanwhile.
				clear(m.batch)
				s.spent[j] = m.batch[:0]
			}
			if m.recycle != nil {
				// A buffer we filled earlier, emptied by j: reuse it for
				// the next outgoing batch instead of growing a fresh one.
				s.outbox[j] = m.recycle
			}
		}
		// Every shard computed the same T, so all of them terminate on the
		// same round.
		if T > horizon {
			return
		}
		// Batched window: the classic conservative bound is [T, T+L), but a
		// tighter per-shard bound holds. Everything any other shard does
		// this round happens at or after bound = min(minOther, outMin):
		// neighbour j's own pending work starts at next_j >= minOther, and
		// the only arrivals injected into j this round that undercut that
		// are the ones THIS shard just handed over, none earlier than
		// outMin (batches from a third shard i start at next_i >= minOther
		// too). A crossing born at time t reaches us no sooner than t+L, so
		// nothing can land strictly before bound+L and this shard may
		// commit that whole span in one round. RunBefore is exclusive, so
		// an arrival at exactly bound+L falls in a later window. When the
		// laggard is this shard's own dense local work (incast: minOther
		// and outMin both far ahead), the bound stretches over many idle
		// neighbour windows at once.
		bound := minOther
		if outMin < bound {
			bound = outMin
		}
		var limit time.Duration
		if bound >= horizon {
			// Nothing can reach us before the horizon (bound may be
			// `never`, so adding L could overflow): run out the remainder.
			limit = horizon + 1
		} else {
			limit = bound + L
			if limit > horizon {
				// Cap at horizon inclusively: Run(horizon) executes events
				// at exactly the horizon, so the strict window must reach
				// past it.
				limit = horizon + 1
			}
		}
		if c.MaxBatch > 0 {
			capped := T + time.Duration(c.MaxBatch)*L
			if capped > horizon {
				capped = horizon + 1
			}
			if capped < limit {
				limit = capped
			}
		}
		eng.RunBefore(limit)
		s.rounds++
	}
}
