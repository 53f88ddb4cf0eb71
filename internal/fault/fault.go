// Package fault is the deterministic fault-injection subsystem for the
// simulator. An Injector schedules failures — link down/up and periodic
// flapping, switch crashes, silent blackholes, random per-packet corruption
// and duplication, transient rate degradation — on the discrete-event engine
// in internal/sim, drawing all randomness from one seeded source so that any
// run replays bit-identically from its seed.
//
// The injector drives the fault hooks on internal/simnet links and switches;
// it never touches endpoints. Recovery is therefore exercised end to end:
// transports see only the symptoms (silence, loss, duplicates, checksum
// failures) and must detect and route around the failure themselves, which
// is exactly what MTP's path-exclude machinery is for (PAPER.md §4).
package fault

import (
	"fmt"
	"math/rand"
	"time"

	"mtp/internal/sim"
	"mtp/internal/simnet"
)

// Event is one entry in the injector's fault log.
type Event struct {
	// At is the virtual time the fault action fired.
	At time.Duration
	// Desc describes the action ("link fast down", "switch 3 up", ...).
	Desc string
}

// String renders the event on one line.
func (e Event) String() string { return fmt.Sprintf("%12v %s", e.At, e.Desc) }

// Injector schedules deterministic faults on one simulation.
type Injector struct {
	eng    *sim.Engine
	rng    *rand.Rand
	events []Event
}

// NewInjector returns an injector bound to eng whose probabilistic faults
// (corruption, duplication) derive from seed. Scheduled faults (down/up,
// crash, degrade) are purely time-driven and do not consume randomness, so
// adding them never perturbs the replay of the probabilistic ones.
func NewInjector(eng *sim.Engine, seed int64) *Injector {
	return &Injector{eng: eng, rng: rand.New(rand.NewSource(seed))}
}

// Events returns the log of fault actions fired so far, in firing order.
func (in *Injector) Events() []Event { return in.events }

// at schedules fn at absolute virtual time t and logs desc when it fires.
func (in *Injector) at(t time.Duration, desc string, fn func()) {
	in.eng.ScheduleAt(t, func() {
		in.events = append(in.events, Event{At: in.eng.Now(), Desc: desc})
		fn()
	})
}

// LinkDown takes l down at time at and, if dur > 0, back up at at+dur.
// Queued packets are lost with the link; arrivals are dropped while down.
func (in *Injector) LinkDown(l *simnet.Link, at, dur time.Duration) {
	in.at(at, "link "+l.Name()+" down", func() { l.SetDown(true) })
	if dur > 0 {
		in.at(at+dur, "link "+l.Name()+" up", func() { l.SetDown(false) })
	}
}

// FlapLink makes l flap periodically: starting at start it goes down for
// downFor, up for upFor, repeating until the down edge would fire at or
// after until.
func (in *Injector) FlapLink(l *simnet.Link, start, downFor, upFor, until time.Duration) {
	if downFor <= 0 || upFor <= 0 {
		panic("fault: FlapLink needs positive downFor and upFor")
	}
	for t := start; t < until; t += downFor + upFor {
		in.LinkDown(l, t, downFor)
	}
}

// CrashSwitch crashes sw at time at — its egress queues are lost and every
// transiting packet is dropped — and, if dur > 0, revives it at at+dur.
func (in *Injector) CrashSwitch(sw *simnet.Switch, at, dur time.Duration) {
	in.at(at, fmt.Sprintf("switch %d crash", sw.ID()), func() { sw.SetDown(true) })
	if dur > 0 {
		in.at(at+dur, fmt.Sprintf("switch %d up", sw.ID()), func() { sw.SetDown(false) })
	}
}

// Blackhole makes l silently discard arrivals from at until at+dur (forever
// if dur <= 0). Unlike LinkDown, queued packets still drain and nothing in
// the network observes the failure — only end-to-end machinery can.
func (in *Injector) Blackhole(l *simnet.Link, at, dur time.Duration) {
	in.at(at, "blackhole "+l.Name()+" on", func() { l.SetBlackhole(true) })
	if dur > 0 {
		in.at(at+dur, "blackhole "+l.Name()+" off", func() { l.SetBlackhole(false) })
	}
}

// Corrupt gives each packet transiting l an independent probability p of
// bit corruption from at until at+dur (forever if dur <= 0). Receivers drop
// corrupted packets on checksum failure rather than parsing them.
func (in *Injector) Corrupt(l *simnet.Link, p float64, at, dur time.Duration) {
	in.at(at, fmt.Sprintf("corrupt %s p=%g on", l.Name(), p), func() { l.SetCorrupt(p, in.rng) })
	if dur > 0 {
		in.at(at+dur, "corrupt "+l.Name()+" off", func() { l.SetCorrupt(0, in.rng) })
	}
}

// Duplicate gives each packet transiting l an independent probability p of
// being delivered twice from at until at+dur (forever if dur <= 0).
func (in *Injector) Duplicate(l *simnet.Link, p float64, at, dur time.Duration) {
	in.at(at, fmt.Sprintf("duplicate %s p=%g on", l.Name(), p), func() { l.SetDuplicate(p, in.rng) })
	if dur > 0 {
		in.at(at+dur, "duplicate "+l.Name()+" off", func() { l.SetDuplicate(0, in.rng) })
	}
}

// Degrade scales l's line rate by factor (0 < factor < 1) from at until
// at+dur (forever if dur <= 0) — a brownout rather than an outage.
func (in *Injector) Degrade(l *simnet.Link, factor float64, at, dur time.Duration) {
	in.at(at, fmt.Sprintf("degrade %s x%g on", l.Name(), factor), func() { l.SetDegrade(factor) })
	if dur > 0 {
		in.at(at+dur, "degrade "+l.Name()+" off", func() { l.SetDegrade(0) })
	}
}
