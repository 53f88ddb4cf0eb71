package core

import (
	"slices"
	"time"

	"mtp/internal/pathlet"
	"mtp/internal/wire"
)

// Pathlet failure recovery (the flip side of Section 3.1.3's path
// exclusion), enabled by Config.FailoverRTOs: a pathlet that eats
// Config.FailoverRTOs consecutive retransmission-timeout rounds without any
// returning feedback is declared dead. The sender then (1) pushes it onto
// the wire path-exclude list so the network routes around it, (2) marks
// every packet in flight on it lost, to be resent — already-delivered
// packets stay delivered, SACK state is per packet — and (3) re-points the window prediction at the healthiest
// surviving pathlet. Dead pathlets are probed every Config.ProbeInterval by
// omitting them from one packet's exclude list; any fresh feedback from a
// dead pathlet readmits it. A pathlet's timeout run, death and probe time
// live in its pathlet.State; Endpoint.dead lists the dead ones in
// declaration order, the order they are probed in.

// noteTimeoutPath records one timeout round on pathlet p and declares it dead
// once the run reaches Config.FailoverRTOs.
func (e *Endpoint) noteTimeoutPath(p wire.PathTC) {
	s := e.table.Get(p)
	if s.Dead {
		return
	}
	s.TimeoutRun++
	if s.TimeoutRun >= e.cfg.FailoverRTOs {
		e.failPathlet(s)
	}
}

// failPathlet declares s dead and fails surviving traffic over.
func (e *Endpoint) failPathlet(s *pathlet.State) {
	p := s.Path
	s.Dead = true
	s.NextProbeAt = e.env.Now() + e.cfg.ProbeInterval
	s.TimeoutRun = 0
	e.dead = append(e.dead, s)
	e.syncExcluded(s)
	e.Stats.Failovers++
	e.emitPath(KindFailover, p)

	// Fail surviving messages over: every packet in flight on the dead
	// pathlet is presumed lost and resent on whatever pathlet the (now
	// filtered) network provides. Acknowledged packets are never resent —
	// reliability is per packet, not go-back-N — and a delegated one waits on
	// its own confirmation deadline.
	for _, m := range e.active {
		for i := range m.pkts {
			if pk := &m.pkts[i]; pk.state == pktInFlight && pk.path == p {
				m.lose(i)
			}
		}
	}

	// Re-point the window prediction at a live pathlet if one is known;
	// otherwise the first feedback from the rerouted packets will.
	if alt, ok := e.table.FailoverFrom(p); ok {
		e.table.SetCurrent(alt)
	}
}

// noteFeedbackPath records returning feedback from pathlet s: it clears the
// consecutive-timeout run and readmits s if it was declared dead (a probe
// made it across and back, so the pathlet works again).
func (e *Endpoint) noteFeedbackPath(s *pathlet.State) {
	e.emitPath(KindFeedback, s.Path)
	s.TimeoutRun = 0
	if !s.Dead {
		return
	}
	s.Dead = false
	i := slices.Index(e.dead, s)
	e.dead = slices.Delete(e.dead, i, i+1)
	e.syncExcluded(s)
	e.Stats.Readmissions++
	e.emitPath(KindReadmit, s.Path)
}

// sendExcludeList returns the path-exclude list for one outgoing data
// packet. When a dead pathlet's probe deadline has passed, it is omitted
// from this packet's list — the packet becomes the readmission probe: if
// the pathlet still works, the network may route the packet over it and its
// feedback readmits it; if not, the packet is recovered like any other loss.
// At most one pathlet is probed per packet so a probe loss costs one RTO.
func (e *Endpoint) sendExcludeList(now time.Duration) []wire.PathTC {
	list := e.table.ExcludeList()
	if len(e.dead) == 0 {
		return list
	}
	for _, d := range e.dead {
		if now < d.NextProbeAt {
			continue
		}
		d.NextProbeAt = now + e.cfg.ProbeInterval
		e.Stats.ProbesSent++
		e.emitPath(KindProbe, d.Path)
		kept := make([]wire.PathTC, 0, len(list))
		for _, p := range list {
			if p != d.Path {
				kept = append(kept, p)
			}
		}
		return kept
	}
	return list
}
