package core

import (
	"time"

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

// autoExcluder tracks per-pathlet mark rates and drives the table's
// exclusion list.
type autoExcluder struct {
	counts map[wire.PathTC]*markWindow
	until  map[wire.PathTC]time.Duration
}

type markWindow struct {
	events int
	marked int
}

func newAutoExcluder() *autoExcluder {
	return &autoExcluder{
		counts: make(map[wire.PathTC]*markWindow),
		until:  make(map[wire.PathTC]time.Duration),
	}
}

// observe feeds one ACK's feedback entries and applies policy to the table.
func (a *autoExcluder) observe(e *Endpoint, now time.Duration, entries []wire.Feedback) {
	// Expire stale exclusions first.
	for p, t := range a.until {
		if now >= t {
			delete(a.until, p)
			e.table.SetExcluded(p, false)
			e.emitPath(KindUnexclude, p)
		}
	}
	for _, f := range entries {
		if f.Type != wire.FeedbackECN && f.Type != wire.FeedbackTrim {
			continue
		}
		w := a.counts[f.Path]
		if w == nil {
			w = &markWindow{}
			a.counts[f.Path] = w
		}
		w.events++
		if f.ECNMarked() || f.Type == wire.FeedbackTrim {
			w.marked++
		}
		if w.events < excludeWindow {
			continue
		}
		frac := float64(w.marked) / float64(w.events)
		w.events, w.marked = 0, 0
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
		if _, already := a.until[f.Path]; !already {
			e.table.SetExcluded(f.Path, true)
			e.Stats.Exclusions++
			e.emitPath(KindExclude, f.Path)
		}
		a.until[f.Path] = now + excludeDuration
	}
}
