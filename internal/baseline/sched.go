package baseline

// SubflowScheduler decides which subflow carries the next MSS chunk of an
// MPTCP stream. Schedulers are deterministic pure functions of the subflow
// states they read (window, backlog, smoothed RTT), so a run is reproducible
// for any scheduler choice — the conformance suite pins this.
type SubflowScheduler interface {
	// Name identifies the scheduler in results and traces.
	Name() string
	// Pick returns the index of the subflow to assign the next chunk to,
	// or -1 to assign nothing. subs is never empty.
	Pick(subs []*Sender) int
}

// backlogOf returns the bytes written to a subflow but not yet acked.
func backlogOf(s *Sender) int64 { return s.total - s.sndUna }

// saturated reports whether a subflow already holds at least two windows of
// unacked backlog — assigning more would only deepen its queue.
func saturated(s *Sender) bool {
	return float64(backlogOf(s)) >= 2*s.Algo().Window()
}

// SchedMaxFree picks the subflow with the most free congestion window
// (window minus in-flight minus unsent backlog) — the original striping
// heuristic, and the default.
type SchedMaxFree struct{}

// Name implements SubflowScheduler.
func (SchedMaxFree) Name() string { return "maxfree" }

// Pick implements SubflowScheduler.
func (SchedMaxFree) Pick(subs []*Sender) int {
	best := -1
	var bestFree float64
	for i, s := range subs {
		free := s.Algo().Window() - float64(s.Outstanding()) - float64(s.total-s.sndNxt)
		if best == -1 || free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// SchedLowestRTT prefers the unsaturated subflow with the smallest smoothed
// RTT, the scheduler deployed Linux MPTCP defaults to. Subflows with no RTT
// sample yet count as fastest (they must be probed to learn their RTT).
// When every subflow is saturated it falls back to max-free so the stream
// never wedges.
type SchedLowestRTT struct{}

// Name implements SubflowScheduler.
func (SchedLowestRTT) Name() string { return "lowest-rtt" }

// Pick implements SubflowScheduler.
func (SchedLowestRTT) Pick(subs []*Sender) int {
	best := -1
	var bestRTT int64
	for i, s := range subs {
		if saturated(s) {
			continue
		}
		r := int64(s.SRTT())
		if best == -1 || r < bestRTT {
			best, bestRTT = i, r
		}
	}
	if best == -1 {
		return SchedMaxFree{}.Pick(subs)
	}
	return best
}

// SchedRoundRobin cycles through unsaturated subflows in order, the classic
// even-striping scheduler (useful as a worst case on asymmetric paths).
type SchedRoundRobin struct{ next int }

// Name implements SubflowScheduler.
func (*SchedRoundRobin) Name() string { return "round-robin" }

// Pick implements SubflowScheduler.
func (r *SchedRoundRobin) Pick(subs []*Sender) int {
	n := len(subs)
	for off := 0; off < n; off++ {
		i := (r.next + off) % n
		if !saturated(subs[i]) {
			r.next = i + 1
			return i
		}
	}
	i := r.next % n
	r.next = i + 1
	return i
}
