package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {40, 2}, {50, 3}, {99, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); got != c.want {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile != 0")
	}
	// Input must not be mutated.
	if vals[0] != 5 {
		t.Fatal("Percentile sorted the caller's slice")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample stddev of that classic set is ~2.138.
	if math.Abs(s.Stddev-2.138) > 0.01 {
		t.Fatalf("stddev = %v", s.Stddev)
	}
	if cv := s.CoefficientOfVariation(); math.Abs(cv-2.138/5) > 0.01 {
		t.Fatalf("cv = %v", cv)
	}
	if got := Summarize(nil); got.N != 0 || got.CoefficientOfVariation() != 0 {
		t.Fatalf("empty summary = %+v", got)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRecoveryTime(t *testing.T) {
	iv := 100 * time.Microsecond
	// Healthy (10) for 5 buckets, dead for 3, recovering at bucket 8.
	series := []float64{10, 10, 10, 10, 10, 0, 0, 0, 6, 10}
	faultAt := 500 * time.Microsecond

	rec, ok := RecoveryTime(series, iv, faultAt, 5)
	if !ok || rec != 400*time.Microsecond {
		t.Fatalf("recovery = %v, %v; want 400µs, true", rec, ok)
	}
	// A higher bar is only cleared at bucket 9.
	rec, ok = RecoveryTime(series, iv, faultAt, 8)
	if !ok || rec != 500*time.Microsecond {
		t.Fatalf("recovery@8 = %v, %v; want 500µs, true", rec, ok)
	}
	if _, ok := RecoveryTime(series, iv, faultAt, 11); ok {
		t.Fatal("recovered above the series maximum")
	}
	// A fault mid-bucket must not credit that bucket's own pre-fault bytes.
	rec, ok = RecoveryTime([]float64{10, 0, 10}, iv, 50*time.Microsecond, 5)
	if !ok || rec != 250*time.Microsecond {
		t.Fatalf("mid-bucket recovery = %v, %v; want 250µs, true", rec, ok)
	}
}

func TestTimeToFirstDelivery(t *testing.T) {
	iv := time.Millisecond
	buckets := []uint64{500, 500, 0, 0, 120, 500}
	ttfd, ok := TimeToFirstDelivery(buckets, iv, 2*time.Millisecond)
	if !ok || ttfd != 3*time.Millisecond {
		t.Fatalf("ttfd = %v, %v; want 3ms, true", ttfd, ok)
	}
	if _, ok := TimeToFirstDelivery([]uint64{1, 0, 0}, iv, time.Millisecond); ok {
		t.Fatal("reported delivery where there was none")
	}
}

func TestDipArea(t *testing.T) {
	iv := time.Second // makes the math legible: area = sum of deficits
	series := []float64{10, 10, 2, 4, 10, 12}
	got := DipArea(series, iv, 2*time.Second, 10)
	if math.Abs(got-(8+6)) > 1e-9 {
		t.Fatalf("dip area = %v, want 14", got)
	}
	if got := DipArea(series, iv, 2*time.Second, 0); got != 0 {
		t.Fatalf("dip area with zero ref = %v", got)
	}
}

// TestQuickPercentileWithinRange: percentiles are always within [min, max]
// and monotone in p.
func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 100
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(vals, p)
			if v < sorted[0] || v > sorted[n-1] || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
