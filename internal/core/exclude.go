package core

import (
	"time"

	"mtp/internal/pathlet"
	"mtp/internal/wire"
)

// Config.AutoExclude enables the sender-side policy that asks the network to
// avoid persistently congested pathlets (Section 3.1.3: "MTP has end-hosts
// provide feedback to the network about the pathlets that should not be
// used"). A pathlet is excluded when its ECN mark fraction over an
// observation window reaches excludeMarkFraction while at least one known
// alternative pathlet is healthy; exclusions expire after excludeDuration so
// the network can be re-probed.
const (
	// excludeMarkFraction is the mark rate over one observation window that
	// triggers exclusion.
	excludeMarkFraction = 0.3
	// excludeWindow is the number of feedback events per observation window.
	excludeWindow = 32
	// excludeDuration is how long an exclusion lasts before the pathlet is
	// re-admitted for probing.
	excludeDuration = 5 * time.Millisecond
	// excludeMinPathlets is the number of observed pathlets below which no
	// exclusion is issued (never exclude the only path).
	excludeMinPathlets = 2
)

// syncExcluded applies the one exclusion rule to s: a pathlet is excluded
// exactly while failover holds it dead or an unexpired auto-exclusion covers
// it.
func (e *Endpoint) syncExcluded(s *pathlet.State) {
	e.table.SetExcluded(s.Path, s.Dead || s.AutoExcludedUntil != 0)
}

// autoExclude feeds one ACK's feedback entries to the auto-exclude policy.
func (e *Endpoint) autoExclude(now time.Duration, entries []wire.Feedback) {
	// Expire stale exclusions first, in exclude-list order. The list ranged
	// over is not edited by the SetExcluded calls, which replace it.
	for _, p := range e.table.ExcludeList() {
		s := e.table.Get(p)
		if s.AutoExcludedUntil == 0 || now < s.AutoExcludedUntil {
			continue
		}
		s.AutoExcludedUntil = 0
		e.syncExcluded(s)
		e.emitPath(KindUnexclude, p)
	}
	for _, f := range entries {
		if f.Type != wire.FeedbackECN && f.Type != wire.FeedbackTrim {
			continue
		}
		s := e.table.Get(f.Path)
		s.WindowEvents++
		if f.ECNMarked() || f.Type == wire.FeedbackTrim {
			s.WindowMarks++
		}
		if s.WindowEvents < excludeWindow {
			continue
		}
		frac := float64(s.WindowMarks) / float64(s.WindowEvents)
		s.WindowEvents, s.WindowMarks = 0, 0
		if frac < excludeMarkFraction {
			continue
		}
		// Only exclude when an alternative exists that has actually been
		// observed (feedback received) and is not itself excluded. The
		// default pathlet placeholder does not count.
		observed, healthy := 0, 0
		for _, st := range e.table.States() {
			if st.LastFeedback == 0 {
				continue
			}
			observed++
			if st.Path != f.Path && !st.Excluded {
				healthy++
			}
		}
		if observed < excludeMinPathlets || healthy == 0 {
			continue
		}
		fresh := s.AutoExcludedUntil == 0
		s.AutoExcludedUntil = now + excludeDuration
		if fresh {
			e.syncExcluded(s)
			e.Stats.Exclusions++
			e.emitPath(KindExclude, f.Path)
		}
	}
}
