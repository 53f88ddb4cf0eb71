package core

import (
	"sort"
	"time"

	"mtp/internal/wire"
)

// failoverState implements end-to-end pathlet failure recovery (the flip
// side of Section 3.1.3's path exclusion): a pathlet that eats
// Config.FailoverRTOs consecutive retransmission-timeout rounds without any
// returning feedback is declared dead. The sender then (1) pushes it onto
// the wire path-exclude list so the network routes around it, (2) sweeps
// every unacknowledged packet attributed to it into the retransmission
// queue — already-delivered packets stay delivered, SACK state is per
// packet — and (3) re-points the window prediction at the healthiest
// surviving pathlet. Dead pathlets are probed every Config.ProbeInterval by
// omitting them from one packet's exclude list; any fresh feedback from a
// dead pathlet readmits it.
type failoverState struct {
	// rtoRuns counts consecutive timeout rounds per pathlet since the last
	// feedback from it.
	rtoRuns map[wire.PathTC]int
	// dead holds the declared-dead pathlets in deterministic (declaration)
	// order with their next probe deadline.
	dead []deadPathlet
}

type deadPathlet struct {
	path        wire.PathTC
	nextProbeAt time.Duration
}

func newFailoverState() *failoverState {
	return &failoverState{rtoRuns: make(map[wire.PathTC]int)}
}

func (f *failoverState) isDead(p wire.PathTC) bool {
	for _, d := range f.dead {
		if d.path == p {
			return true
		}
	}
	return false
}

// noteTimeoutPath records one timeout round on pathlet p and reports whether
// the pathlet just crossed the death threshold.
func (e *Endpoint) noteTimeoutPath(p wire.PathTC) {
	f := e.fo
	if f == nil || f.isDead(p) {
		return
	}
	f.rtoRuns[p]++
	if f.rtoRuns[p] < e.cfg.FailoverRTOs {
		return
	}
	e.failPathlet(p)
}

// failPathlet declares p dead and fails surviving traffic over.
func (e *Endpoint) failPathlet(p wire.PathTC) {
	now := e.env.Now()
	f := e.fo
	f.dead = append(f.dead, deadPathlet{path: p, nextProbeAt: now + e.cfg.ProbeInterval})
	delete(f.rtoRuns, p)
	e.table.SetExcluded(p, true)
	e.Stats.Failovers++
	e.emitPath(KindFailover, p)

	// Fail surviving messages over: every packet still unacknowledged on the
	// dead pathlet is presumed lost and queued for retransmission on whatever
	// pathlet the (now filtered) network provides. Acknowledged packets are
	// never resent — reliability is per packet, not go-back-N.
	for _, m := range e.active {
		queued := false
		for i := range m.pkts {
			pk := &m.pkts[i]
			if pk.sent && !pk.acked && !pk.inRtx && pk.path == p {
				pk.inRtx = true
				m.rtxQueue = append(m.rtxQueue, i)
				queued = true
			}
		}
		if queued && len(m.rtxQueue) > 1 {
			sort.Ints(m.rtxQueue)
		}
	}

	// Re-point the window prediction at a live pathlet if one is known;
	// otherwise the first feedback from the rerouted packets will.
	if alt, ok := e.table.FailoverFrom(p); ok {
		e.table.SetCurrent(alt)
	}
}

// noteFeedbackPath records returning feedback from pathlet p: it clears the
// consecutive-timeout run and readmits p if it was declared dead (a probe
// made it across and back, so the pathlet works again).
func (e *Endpoint) noteFeedbackPath(p wire.PathTC) {
	f := e.fo
	if f == nil {
		return
	}
	e.emitPath(KindFeedback, p)
	delete(f.rtoRuns, p)
	for i, d := range f.dead {
		if d.path != p {
			continue
		}
		f.dead = append(f.dead[:i], f.dead[i+1:]...)
		e.table.SetExcluded(p, false)
		e.Stats.Readmissions++
		e.emitPath(KindReadmit, p)
		return
	}
}

// sendExcludeList returns the path-exclude list for one outgoing data
// packet. When a dead pathlet's probe deadline has passed, it is omitted
// from this packet's list — the packet becomes the readmission probe: if
// the pathlet still works, the network may route the packet over it and its
// feedback readmits it; if not, the packet is recovered like any other loss.
// At most one pathlet is probed per packet so a probe loss costs one RTO.
func (e *Endpoint) sendExcludeList() []wire.PathTC {
	list := e.table.ExcludeList()
	f := e.fo
	if f == nil || len(f.dead) == 0 {
		return list
	}
	now := e.env.Now()
	for i := range f.dead {
		d := &f.dead[i]
		if now < d.nextProbeAt {
			continue
		}
		d.nextProbeAt = now + e.cfg.ProbeInterval
		e.Stats.ProbesSent++
		e.emitPath(KindProbe, d.path)
		kept := make([]wire.PathTC, 0, len(list))
		for _, p := range list {
			if p != d.path {
				kept = append(kept, p)
			}
		}
		return kept
	}
	return list
}
