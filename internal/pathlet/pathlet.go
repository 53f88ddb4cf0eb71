// Package pathlet implements the per-(pathlet, traffic class) congestion
// state table kept by MTP senders. Pathlets are opaque resource identifiers
// assigned by the network; the sender discovers them from the feedback lists
// echoed in acknowledgements, keeps one congestion-control instance per
// pathlet, predicts which pathlet its next packets will traverse, and can
// ask the network to exclude pathlets it has observed to be congested.
package pathlet

import (
	"cmp"
	"slices"
	"time"

	"mtp/internal/cc"
	"mtp/internal/wire"
)

// State is everything the sender knows about one (pathlet, TC): its
// congestion state and what the exclusion policies hold about it.
type State struct {
	Path wire.PathTC
	Algo cc.Algorithm

	// Inflight is the number of unacknowledged bytes attributed to this
	// pathlet by the sender.
	Inflight int

	// LastFeedback is when feedback for this pathlet last arrived.
	LastFeedback time.Duration

	// Excluded reports whether the sender is currently asking the network
	// to avoid this pathlet. Written by Table.SetExcluded only, which keeps
	// the table's exclude list in step.
	Excluded bool

	// The auto-exclude policy's record: the feedback events and marks of the
	// current observation window, and when the pathlet's auto-exclusion
	// expires (0 while none covers it).
	WindowEvents, WindowMarks int
	AutoExcludedUntil         time.Duration

	// Failover's record: the consecutive timeout rounds since the pathlet's
	// last feedback, whether it is held dead, and when it is next probed.
	TimeoutRun  int
	Dead        bool
	NextProbeAt time.Duration
}

// CanSend reports whether the window admits sending n more bytes.
func (s *State) CanSend(n int) bool {
	return float64(s.Inflight+n) <= s.Algo.Window() || s.Inflight == 0
}

// Factory builds a congestion-control instance for a newly discovered
// pathlet. Different pathlets may get different algorithms.
type Factory func(p wire.PathTC) cc.Algorithm

// Table is the sender's pathlet state table.
type Table struct {
	factory Factory
	// states is keyed by stateKey(path): one word, which the runtime hashes
	// in a single step where the padded PathTC struct is hashed field by
	// field — Get runs several times per packet.
	states map[uint64]*State

	current    wire.PathTC
	hasCurrent bool

	// exclude lists the states with Excluded set, sorted by (PathID, TC).
	// ExcludeList hands it out for every outgoing packet, so SetExcluded
	// replaces it rather than editing it: a list handed out stays valid.
	exclude []wire.PathTC

	// sigScratch and updScratch are reused across OnAck calls so the
	// per-acknowledgement path allocates nothing. The slice returned by
	// OnAck aliases updScratch and is valid until the next OnAck call.
	sigScratch []pathSig
	updScratch []*State
}

// pathSig pairs a pathlet with its accumulated congestion signal while an
// acknowledgement's feedback entries are being grouped.
type pathSig struct {
	path wire.PathTC
	sig  cc.Signal
}

// DefaultPath is the pathlet assumed before any network feedback arrives.
// Representing the whole network as this single pathlet makes MTP behave
// like classic end-to-end congestion control (the paper's TCP-compatibility
// argument).
var DefaultPath = wire.PathTC{PathID: 0, TC: 0}

// NewTable returns an empty table that builds per-pathlet algorithms with
// factory.
func NewTable(factory Factory) *Table {
	if factory == nil {
		panic("pathlet: nil factory")
	}
	return &Table{factory: factory, states: make(map[uint64]*State)}
}

func stateKey(p wire.PathTC) uint64 { return uint64(p.PathID)<<8 | uint64(p.TC) }

// Get returns the state for p, creating it on first use.
func (t *Table) Get(p wire.PathTC) *State {
	k := stateKey(p)
	if s, ok := t.states[k]; ok {
		return s
	}
	s := &State{Path: p, Algo: t.factory(p)}
	t.states[k] = s
	return s
}

// Lookup returns the state for p if it exists.
func (t *Table) Lookup(p wire.PathTC) (*State, bool) {
	s, ok := t.states[stateKey(p)]
	return s, ok
}

// Len returns the number of known pathlets.
func (t *Table) Len() int { return len(t.states) }

// Current returns the state of the pathlet the sender predicts its next
// packets will traverse: the pathlet of the most recent feedback, or
// DefaultPath before any feedback arrives.
func (t *Table) Current() *State {
	if !t.hasCurrent {
		return t.Get(DefaultPath)
	}
	return t.Get(t.current)
}

// SetCurrent overrides the predicted pathlet (e.g. from an explicit network
// path announcement).
func (t *Table) SetCurrent(p wire.PathTC) {
	t.current = p
	t.hasCurrent = true
}

// OnAck applies one acknowledgement's feedback to the table: it updates every
// referenced pathlet's algorithm, marks the most recent feedback's
// pathlet as current, and returns the set of pathlets that were updated.
// The returned slice is reused by the next OnAck call; callers must not
// retain it.
func (t *Table) OnAck(now time.Duration, entries []wire.Feedback, ackedBytes int, rtt time.Duration) []*State {
	if len(entries) == 0 {
		// ACK with no pathlet feedback: attribute to the default pathlet so
		// single-pathlet (TCP-like) operation still evolves a window.
		s := t.Get(DefaultPath)
		s.Algo.OnAck(now, cc.Signal{AckedBytes: ackedBytes, RTT: rtt})
		s.LastFeedback = now
		t.updScratch = append(t.updScratch[:0], s)
		return t.updScratch
	}
	// Group feedback by pathlet, converted to congestion-control signals;
	// ackedBytes and rtt apply to every pathlet the ACK carries feedback for
	// (the packet traversed them all). No map: acknowledgements carry a
	// handful of entries, so linear search beats hashing and allocates
	// nothing.
	sigs := t.sigScratch[:0]
	for i := range entries {
		f := &entries[i]
		j := -1
		for k := range sigs {
			if sigs[k].path == f.Path {
				j = k
				break
			}
		}
		if j < 0 {
			sigs = append(sigs, pathSig{path: f.Path, sig: cc.Signal{AckedBytes: ackedBytes, RTT: rtt}})
			j = len(sigs) - 1
		}
		sg := &sigs[j].sig
		switch f.Type {
		case wire.FeedbackECN:
			sg.ECN = sg.ECN || f.ECNMarked()
		case wire.FeedbackRate:
			sg.HasRate = true
			sg.RateBps = float64(f.RateBps())
		case wire.FeedbackDelay:
			sg.HasDelay = true
			sg.Delay = time.Duration(f.DelayNanos())
		case wire.FeedbackTrim:
			// Trimming indicates severe congestion: treat as a mark.
			sg.ECN = true
		}
	}
	t.sigScratch = sigs

	updated := t.updScratch[:0]
	for i := range sigs {
		s := t.Get(sigs[i].path)
		s.Algo.OnAck(now, sigs[i].sig)
		s.LastFeedback = now
		updated = append(updated, s)
	}
	t.updScratch = updated
	// Deterministic order: insertion sort by (PathID, TC) — the list is
	// tiny and this avoids sort.Slice's closure allocation.
	for i := 1; i < len(updated); i++ {
		for j := i; j > 0 && comparePath(updated[j].Path, updated[j-1].Path) < 0; j-- {
			updated[j], updated[j-1] = updated[j-1], updated[j]
		}
	}
	// The freshest feedback names the pathlet traffic is currently taking:
	// use the last entry in the header's list (devices append in path order,
	// so the list's entries all belong to the current path; any of them
	// identifies it). Prefer the first entry, which is the first resource
	// on the path and typically the load-balanced choice.
	t.current = entries[len(entries)-1].Path
	t.hasCurrent = true
	return updated
}

// comparePath orders (pathlet, TC) pairs lexicographically.
func comparePath(a, b wire.PathTC) int {
	return cmp.Or(cmp.Compare(a.PathID, b.PathID), cmp.Compare(a.TC, b.TC))
}

// FailoverFrom picks the best alternative to a dead pathlet: the
// non-excluded pathlet (other than dead) with the most recent feedback.
// It reports false when the sender knows no live alternative — the network
// may still reroute via the header exclude list, so failover proceeds either
// way; this only steers the window prediction.
func (t *Table) FailoverFrom(dead wire.PathTC) (wire.PathTC, bool) {
	var best *State
	for _, s := range t.States() {
		if s.Path == dead || s.Excluded || s.LastFeedback == 0 {
			continue
		}
		if best == nil || s.LastFeedback > best.LastFeedback {
			best = s
		}
	}
	if best == nil {
		return wire.PathTC{}, false
	}
	return best.Path, true
}

// OnLoss reports a loss attributed to pathlet p.
func (t *Table) OnLoss(now time.Duration, p wire.PathTC) {
	t.Get(p).Algo.OnLoss(now)
}

// AddInflight attributes n in-flight bytes to pathlet p.
func (t *Table) AddInflight(p wire.PathTC, n int) {
	t.Get(p).Inflight += n
}

// RemoveInflight releases n in-flight bytes from pathlet p. It does not clamp:
// a release with no matching attribution drives Inflight negative, which the
// invariant checker (internal/check) reports.
func (t *Table) RemoveInflight(p wire.PathTC, n int) {
	t.Get(p).Inflight -= n
}

// ResetAlgorithms replaces every pathlet's congestion-control instance with
// a fresh one from the factory (back to slow start, with no RTT estimate).
// Inflight attribution is deliberately preserved: it tracks packets currently
// attributed by the sender across all peers, and resetting it would corrupt
// the add/remove pairing of packets still in flight. Used when a peer restart
// invalidates the congestion estimates learned against its previous
// incarnation.
func (t *Table) ResetAlgorithms() {
	for _, s := range t.states {
		s.Algo = t.factory(s.Path)
	}
}

// SetExcluded marks or clears a pathlet exclusion request. A change puts a
// new exclude list in place of the old one.
func (t *Table) SetExcluded(p wire.PathTC, excluded bool) {
	s := t.Get(p)
	if s.Excluded == excluded {
		return
	}
	s.Excluded = excluded
	i, _ := slices.BinarySearchFunc(t.exclude, p, comparePath)
	switch {
	case excluded:
		t.exclude = slices.Insert(slices.Clip(t.exclude), i, p)
	case len(t.exclude) == 1:
		t.exclude = nil
	default:
		t.exclude = slices.Concat(t.exclude[:i], t.exclude[i+1:])
	}
}

// ExcludeList returns the pathlets the sender wants the network to avoid,
// sorted by (PathID, TC), for inclusion in outgoing headers; nil when there
// are none. The list stays valid after later exclusion changes and must not
// be modified.
func (t *Table) ExcludeList() []wire.PathTC { return t.exclude }

// States returns all pathlet states in deterministic order.
func (t *Table) States() []*State {
	out := make([]*State, 0, len(t.states))
	for _, s := range t.states {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b *State) int { return comparePath(a.Path, b.Path) })
	return out
}
