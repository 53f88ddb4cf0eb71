package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0..1) of an ascending slice by the
// nearest-rank rule; 0 for an empty slice. The benchmark keeps its own
// arithmetic rather than importing mtp/internal/stats: it may only depend on
// the functions it measures, so that a change to the program never needs an
// edit here.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// value is one reported cell: the median of its per-repetition samples with
// the spread and sample count alongside.
type value struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(samples []float64) value {
	if len(samples) == 0 {
		return value{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return value{Median: med, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// exact wraps a single deterministic reading (an exact count, a golden-checked
// anchor) as a cell.
func exact(v float64) value { return value{Median: v, Min: v, Max: v, N: 1} }

// repSamples accumulates one named sample per repetition and reduces each
// name to its median cell.
type repSamples map[string][]float64

func (r repSamples) add(rep map[string]float64) {
	for k, v := range rep {
		r[k] = append(r[k], v)
	}
}

func (r repSamples) cells() map[string]value {
	out := make(map[string]value, len(r))
	for k, v := range r {
		out[k] = summarize(v)
	}
	return out
}

// Names of the runtime/metrics samples read at repetition boundaries.
const (
	rmMutexWait = "/sync/mutex/wait/total:seconds"
	rmGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rmSchedLat  = "/sched/latencies:seconds"
)

// usage is a snapshot of the process-wide counters a repetition is charged
// against: CPU and context switches from getrusage, allocation counters from
// MemStats, and scheduler/GC/mutex totals from runtime/metrics.
type usage struct {
	at         time.Time
	user, sys  time.Duration
	ctxsw      int64
	mallocs    uint64
	allocBytes uint64
	mutexWait  float64 // seconds
	gcCPU      float64 // cpu-seconds
	totalCPU   float64 // cpu-seconds
	schedLat   *metrics.Float64Histogram
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: rmMutexWait}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmSchedLat}}
	metrics.Read(s)
	u := usage{
		at:         time.Now(),
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		ctxsw:      ru.Nvcsw + ru.Nivcsw,
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.mutexWait = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		u.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		// Read reuses the histogram's buckets across calls; keep a copy.
		h := s[3].Value.Float64Histogram()
		u.schedLat = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: h.Buckets,
		}
	}
	return u
}

// usageDelta is what one repetition consumed.
type usageDelta struct {
	wall       time.Duration
	cpu, sys   time.Duration
	ctxsw      int64
	mallocs    int64
	allocBytes ByteCount
	mutexWait  time.Duration
	gcCPUFrac  float64
	schedP99   Nanos
}

func (a usage) since(b usage) usageDelta {
	d := usageDelta{
		wall:       a.at.Sub(b.at),
		cpu:        (a.user + a.sys) - (b.user + b.sys),
		sys:        a.sys - b.sys,
		ctxsw:      a.ctxsw - b.ctxsw,
		mallocs:    int64(a.mallocs - b.mallocs),
		allocBytes: ByteCount(a.allocBytes - b.allocBytes),
		mutexWait:  time.Duration((a.mutexWait - b.mutexWait) * 1e9),
	}
	if tot := a.totalCPU - b.totalCPU; tot > 0 {
		d.gcCPUFrac = (a.gcCPU - b.gcCPU) / tot
	}
	d.schedP99 = histDeltaQuantile(a.schedLat, b.schedLat, 0.99)
	return d
}

// histDeltaQuantile is the q-quantile of the events added to a cumulative
// runtime/metrics histogram between two reads, reported as the upper edge of
// the bucket holding it.
func histDeltaQuantile(now, before *metrics.Float64Histogram, q float64) Nanos {
	if now == nil || before == nil || len(now.Counts) != len(before.Counts) {
		return 0
	}
	var total uint64
	for i := range now.Counts {
		total += now.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range now.Counts {
		seen += now.Counts[i] - before.Counts[i]
		if seen >= rank {
			edge := now.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = now.Buckets[i]
			}
			return Nanos(edge * 1e9)
		}
	}
	return 0
}

// liveHeap forces two collections (the second empties sync.Pool victim
// caches, which otherwise make the reading depend on GC phase) and returns
// the bytes still reachable.
func liveHeap() ByteCount {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ByteCount(ms.HeapAlloc)
}
