package simnet

import (
	"time"
)

// PolicerAction is the verdict a policer returns for one packet.
type PolicerAction int

// Policer verdicts.
const (
	// PolicerPass admits the packet unchanged.
	PolicerPass PolicerAction = iota
	// PolicerMark admits the packet but marks congestion (CE bit and, for
	// MTP packets, pathlet ECN feedback) so the sending entity backs off.
	PolicerMark
	// PolicerDrop discards the packet.
	PolicerDrop
)

// Policer inspects packets at link enqueue to enforce per-entity policies
// without dedicating a queue per entity (the paper's Figure 7 "MTP-enabled
// shared queue" system).
type Policer interface {
	Admit(now time.Duration, pkt *Packet, l *Link) PolicerAction
}

// FairSharePolicer enforces equal bandwidth shares of the link it polices
// between tenants, using one token bucket per tenant. A tenant's share is the
// link's rate over the number of tenants seen so far. A tenant transmitting
// within its share always passes; a tenant exceeding its share is marked once
// the shared queue holds policerMarkQueue packets, and dropped only if it
// keeps pushing past its share while the queue is within policerDropMargin
// packets of capacity.
type FairSharePolicer struct {
	buckets map[int]*bucket
}

const (
	// policerBurst is each tenant's token bucket depth in bytes.
	policerBurst = 64 << 10
	// policerMarkQueue is the shared-queue depth (packets) at which
	// over-share traffic is marked.
	policerMarkQueue = 4
	// policerDropMargin is how far below the link's queue capacity
	// (packets) over-share traffic starts to be dropped.
	policerDropMargin = 8
)

type bucket struct {
	tokens float64
	last   time.Duration
}

// Admit implements Policer.
func (p *FairSharePolicer) Admit(now time.Duration, pkt *Packet, l *Link) PolicerAction {
	if p.buckets == nil {
		p.buckets = make(map[int]*bucket)
	}
	b, ok := p.buckets[pkt.Tenant]
	if !ok {
		b = &bucket{tokens: policerBurst, last: now}
		p.buckets[pkt.Tenant] = b
	}
	share := l.cfg.Rate / float64(len(p.buckets)) / 8 // bytes/s
	b.tokens += share * (now - b.last).Seconds()
	if b.tokens > policerBurst {
		b.tokens = policerBurst
	}
	b.last = now

	need := float64(pkt.Size)
	if b.tokens >= need {
		b.tokens -= need
		return PolicerPass
	}
	// Over share: the verdict escalates with shared-queue pressure. When the
	// queue is empty, spare capacity exists and the packet passes (work
	// conservation); the bucket stays empty so pressure is detected quickly.
	qlen := l.QueueLen()
	switch {
	case qlen >= l.cfg.QueueCap-policerDropMargin:
		return PolicerDrop
	case qlen >= policerMarkQueue:
		return PolicerMark
	default:
		return PolicerPass
	}
}
