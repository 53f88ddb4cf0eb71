package mtp

import (
	"fmt"
	"strings"
	"time"

	"mtp/internal/core"
)

// traceRing is the core.Observer behind Config.TraceEvents: a fixed buffer
// of the most recent protocol events, the oldest overwritten first. The
// endpoint feeds it under Node.mu, and TraceDump reads it under the same lock.
type traceRing struct {
	buf   []traceEntry
	pos   int
	total uint64
}

// traceEntry is what the ring keeps of a core.Event: everything the dump
// prints, and none of the event's pointers, which are valid only during the
// call and would make the garbage collector scan the buffer.
type traceEntry struct {
	at   time.Duration
	kind core.Kind
	pkt  uint32
	msg  uint64
	a, b uint64
}

func newTraceRing(capacity int) *traceRing {
	return &traceRing{buf: make([]traceEntry, 0, capacity)}
}

// Observe implements core.Observer.
func (r *traceRing) Observe(_ *core.Endpoint, ev *core.Event) {
	rec := traceEntry{at: ev.At, kind: ev.Kind, pkt: ev.Pkt, msg: ev.Msg, a: ev.A, b: ev.B}
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
		return
	}
	r.buf[r.pos] = rec
	r.pos = (r.pos + 1) % len(r.buf)
}

// dump renders the retained events, oldest first, under a summary line.
func (r *traceRing) dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events recorded, %d retained\n", r.total, len(r.buf))
	for _, part := range [2][]traceEntry{r.buf[r.pos:], r.buf[:r.pos]} {
		for _, t := range part {
			ev := core.Event{At: t.at, Kind: t.kind, Msg: t.msg, Pkt: t.pkt, A: t.a, B: t.b}
			b.WriteString(ev.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
