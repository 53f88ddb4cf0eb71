package exp

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestSweepOrderAndWorkers checks the runner's contract: results land at
// their input index for any worker count, including more workers than
// points and the GOMAXPROCS default.
func TestSweepOrderAndWorkers(t *testing.T) {
	points := make([]int, 37)
	for i := range points {
		points[i] = i
	}
	want := Sweep(1, points, func(p int) int { return p * p })
	for _, workers := range []int{0, 2, 3, 8, 64} {
		got := Sweep(workers, points, func(p int) int { return p * p })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from sequential", workers)
		}
	}
	if got := Sweep(4, nil, func(p int) int { return p }); len(got) != 0 {
		t.Fatalf("empty input produced %d results", len(got))
	}
}

// TestSweepMatchesSequential is the end-to-end determinism guarantee behind
// the -parallel flag: a parallel experiment sweep must be bit-identical to
// the sequential run, point for point, because every point builds its own
// engine and RNG from an explicit seed. Compared via %#v so any drift in any
// field — not just the headline metrics — fails the test.
func TestSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation sweep")
	}
	periods := []time.Duration{192 * time.Microsecond, 768 * time.Microsecond}
	loads := []float64{0.5, 0.9}
	for seed := int64(1); seed <= 3; seed++ {
		seq5 := RunFig5PeriodSweep(1, periods, 2*time.Millisecond, seed)
		par5 := RunFig5PeriodSweep(0, periods, 2*time.Millisecond, seed)
		if s, p := fmt.Sprintf("%#v", seq5), fmt.Sprintf("%#v", par5); s != p {
			t.Errorf("seed %d: fig5 sweep diverged\nseq: %s\npar: %s", seed, s, p)
		}
		seq6 := RunFig6LoadSweep(1, loads, 80, 4<<20, seed)
		par6 := RunFig6LoadSweep(0, loads, 80, 4<<20, seed)
		if !reflect.DeepEqual(seq6, par6) {
			t.Errorf("seed %d: fig6 sweep diverged\nseq: %#v\npar: %#v", seed, seq6, par6)
		}
	}
}

// TestTable1WorkersMatchesSequential pins the parallel feature matrix to the
// sequential one.
func TestTable1WorkersMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full probe matrix twice")
	}
	seq := goldenTable1(t)
	par := RunTable1(0)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel Table 1 diverged from sequential")
	}
}
