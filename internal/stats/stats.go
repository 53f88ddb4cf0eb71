// Package stats provides the light measurement utilities used by the
// experiment harnesses: fault-recovery metrics over sampled throughput
// series, percentile computation, and simple summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// RecoveryTime returns how long after faultAt the throughput series first
// reaches threshold again. series holds one sample per interval starting at
// t=0, in whatever unit threshold uses. Recovery is credited at the end of
// the qualifying bucket — a sample only proves throughput somewhere within
// its interval. ok is false if the series never recovers after faultAt.
func RecoveryTime(series []float64, interval, faultAt time.Duration, threshold float64) (rec time.Duration, ok bool) {
	if interval <= 0 {
		panic("stats: non-positive interval")
	}
	for i := firstWholeBucket(interval, faultAt); i < len(series); i++ {
		if series[i] >= threshold {
			return time.Duration(i+1)*interval - faultAt, true
		}
	}
	return 0, false
}

// firstWholeBucket returns the index of the first bucket lying entirely
// after faultAt. The bucket the fault lands inside is ambiguous — its count
// mixes pre- and post-fault bytes — so it is skipped unless faultAt falls
// exactly on its leading edge.
func firstWholeBucket(interval, faultAt time.Duration) int {
	i := int(faultAt / interval)
	if faultAt%interval != 0 {
		i++
	}
	return i
}

// TimeToFirstDelivery returns how long after faultAt the first nonzero
// bucket ends — the outage seen by the application, independent of any
// throughput threshold. ok is false if nothing is delivered after faultAt.
func TimeToFirstDelivery(buckets []uint64, interval, faultAt time.Duration) (ttfd time.Duration, ok bool) {
	if interval <= 0 {
		panic("stats: non-positive interval")
	}
	for i := firstWholeBucket(interval, faultAt); i < len(buckets); i++ {
		if buckets[i] > 0 {
			return time.Duration(i+1)*interval - faultAt, true
		}
	}
	return 0, false
}

// DipArea integrates the throughput deficit below ref from faultAt to the
// end of the series: sum over samples of max(0, ref-sample)*interval. With
// ref in Gbit/s and interval in seconds this yields gigabits of goodput lost
// to the fault — the area of the dip in a Figure-5-style trace.
func DipArea(series []float64, interval, faultAt time.Duration, ref float64) float64 {
	if interval <= 0 {
		panic("stats: non-positive interval")
	}
	area := 0.0
	for i := firstWholeBucket(interval, faultAt); i < len(series); i++ {
		if d := ref - series[i]; d > 0 {
			area += d * interval.Seconds()
		}
	}
	return area
}

// Percentile returns the p-th percentile (0..100) of values using
// nearest-rank on a sorted copy. It returns 0 for empty input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// Summary holds basic aggregate statistics.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of values.
func Summarize(values []float64) Summary {
	s := Summary{N: len(values)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = values[0], values[0]
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, v := range values {
			d := v - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// CoefficientOfVariation returns stddev/mean, the noisiness measure used to
// compare Figure 3's throughput traces. It returns 0 when the mean is 0.
func (s Summary) CoefficientOfVariation() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Stddev / s.Mean
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f", s.N, s.Mean, s.Stddev, s.Min, s.Max)
}
