package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own files around the calls into each
// layer: the benchmark is the core.Env in the core rung and wraps the
// net.PacketConn in the mtp rungs, so every boundary is visible from outside
// the program under test.

type spanName uint8

const (
	spanCoreSend spanName = iota
	spanEnvOutput
	spanWireEncode
	spanWireDecode
	spanCoreOnData
	spanCoreOnAck
	spanCoreOnTimer
	spanSendCall
	spanSendToDeliver
	spanDeliverToDone
	spanPCWrite
	spanPCRead
	spanRPCCall
	spanRPCHandler
	spanRunScale
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.send", "env.output", "wire.encode", "wire.decode",
	"core.on_data", "core.on_ack", "core.on_timer",
	"mtp.send_call", "msg.send_to_deliver", "msg.deliver_to_done",
	"pc.write", "pc.read", "rpc.call", "rpc.handler", "exp.run_scale",
}

// span is one timed interval. Start and End are nanoseconds since process
// start; Parent indexes the span that caused this one (-1 for a root); Msg is
// shared by every span of one message.
type span struct {
	Start, End int64
	Msg        uint64
	Parent     int32
	Name       spanName
}

// recorder keeps spans in a preallocated slice and never allocates while
// recording. A nil *recorder records nothing, so untraced runs share the
// instrumented code paths at the cost of one nil check.
type recorder struct {
	spans []span
	n     atomic.Int32
	// limit caps recording for the current rung so that no single rung can
	// fill the buffer and starve the rungs after it.
	limit   atomic.Int32
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	r := &recorder{spans: make([]span, capacity)}
	r.limit.Store(int32(capacity))
	return r
}

func sinceStart() int64 { return int64(time.Since(procStart)) }

// grant lets the next rung record up to quota more spans and returns the
// index its spans start at.
func (r *recorder) grant(quota int) int {
	if r == nil {
		return 0
	}
	// A racing begin may have pushed n a few past the old limit; those
	// slots were never written.
	if lim := r.limit.Load(); r.n.Load() > lim {
		r.n.Store(lim)
	}
	lo := int(r.n.Load())
	hi := lo + quota
	if hi > len(r.spans) {
		hi = len(r.spans)
	}
	r.limit.Store(int32(hi))
	return lo
}

// recorded returns the spans from index lo on. Call it only once every
// goroutine of the rung has stopped.
func (r *recorder) recorded(lo int) []span {
	if r == nil {
		return nil
	}
	hi := int(r.n.Load())
	if lim := int(r.limit.Load()); hi > lim {
		hi = lim
	}
	if lo > hi {
		lo = hi
	}
	return r.spans[lo:hi]
}

// begin opens a span and returns its index, or -1 when not recording.
func (r *recorder) begin(name spanName, parent int32, msg uint64) int32 {
	if r == nil {
		return -1
	}
	lim := r.limit.Load()
	if r.n.Load() >= lim {
		r.dropped.Add(1)
		return -1
	}
	i := r.n.Add(1) - 1
	if i >= lim {
		r.dropped.Add(1) // lost a race for the last slot; grant trims n
		return -1
	}
	r.spans[i] = span{Start: sinceStart(), Msg: msg, Parent: parent, Name: name}
	return i
}

// end closes a span opened by begin.
func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = sinceStart()
}

func (r *recorder) setMsg(i int32, msg uint64) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].Msg = msg
}

// writeJSONL writes one object per span:
// {"name":..,"start_ns":..,"end_ns":..,"parent":..,"msg":..,"id":..}.
// parent and id are line numbers (0-based) within the file.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var line []byte
	for i, s := range r.recorded(0) {
		line = line[:0]
		line = append(line, `{"id":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.Name]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.Parent), 10)
		line = append(line, `,"msg":`...)
		line = strconv.AppendUint(line, s.Msg, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for each span of one rung, its duration minus the part
// of that interval its children cover. Children may overlap each other (two
// goroutines working for one message), so coverage is the union of the child
// intervals clipped to the parent. base is the recorder index of spans[0],
// which Parent values are relative to. Unfinished spans (End == 0) get 0.
func selfTimes(spans []span, base int) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if p := s.Parent - int32(base); s.Parent >= 0 && p >= 0 && int(p) < len(spans) {
			kids[p] = append(kids[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		self[i] = s.End - s.Start - covered(spans, kids[int32(i)], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the given child intervals within
// [lo, hi].
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
	var sum int64
	edge := lo
	for _, k := range kids {
		s, e := spans[k].Start, spans[k].End
		if e < s {
			continue // unfinished child covers nothing
		}
		if s < edge {
			s = edge
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			edge = e
		}
	}
	return sum
}

// closureError is the ladder's bookkeeping check: for every root span, the
// self times of its tree should add up to the root's duration. It returns
// the largest relative gap over all finished roots (0 when there are none).
func closureError(spans []span, base int) float64 {
	self := selfTimes(spans, base)
	root := make([]int32, len(spans))
	sum := make([]int64, len(spans))
	for i, s := range spans {
		p := s.Parent - int32(base)
		if s.Parent < 0 || p < 0 || int(p) >= len(spans) {
			root[i] = int32(i)
		} else {
			root[i] = root[p] // parents are always recorded before children
		}
		sum[root[i]] += self[i]
	}
	var worst float64
	for i, s := range spans {
		if root[i] != int32(i) || s.End <= s.Start {
			continue
		}
		gap := float64(sum[i]-(s.End-s.Start)) / float64(s.End-s.Start)
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst
}

// spanQuantile returns the q-quantile of the durations (self == nil) or self
// times of every finished span of the given name, in nanoseconds, and how
// many there were.
func spanQuantile(spans []span, self []int64, name spanName, q float64) (Nanos, int) {
	var v []float64
	for i, s := range spans {
		if s.Name != name || s.End < s.Start || s.End == 0 {
			continue
		}
		if self != nil {
			v = append(v, float64(self[i]))
		} else {
			v = append(v, float64(s.End-s.Start))
		}
	}
	sort.Float64s(v)
	return Nanos(percentile(v, q)), len(v)
}
