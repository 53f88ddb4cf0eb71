package span

import (
	"math"
	"math/bits"
	"testing"
)

// TestSet covers merging, adjacency, duplicates, the in-order prefix and
// the rejection of empty ranges on byte offsets.
func TestSet(t *testing.T) {
	var s Set[int64]
	if got := s.Add(0, 9); got != 10 {
		t.Fatalf("Add(0,9) = %d", got)
	}
	if got := s.Add(20, 29); got != 10 {
		t.Fatalf("Add(20,29) = %d", got)
	}
	if got := s.Prefix(); got != 10 {
		t.Fatalf("Prefix = %d", got)
	}
	// Overlapping both ends plus the gap.
	if got := s.Add(5, 24); got != 10 {
		t.Fatalf("Add(5,24) added %d, want 10", got)
	}
	if got := s.Prefix(); got != 30 {
		t.Fatalf("Prefix = %d, want 30", got)
	}
	if s.Len() != 1 {
		t.Fatalf("ranges not merged: %v", s.r)
	}
	// Duplicates add nothing.
	if got := s.Add(0, 29); got != 0 {
		t.Fatalf("duplicate added %d", got)
	}
	// Adjacent ranges merge.
	if got := s.Add(30, 39); got != 10 {
		t.Fatalf("adjacent Add = %d", got)
	}
	if s.Len() != 1 || s.Prefix() != 40 {
		t.Fatalf("adjacency merge failed: %v", s.r)
	}
	// Empty ranges add nothing.
	for _, bad := range [][2]int64{{5, 4}, {9, 3}, {-2, -10}} {
		if got := s.Add(bad[0], bad[1]); got != 0 {
			t.Fatalf("Add(%d,%d) = %d, want 0", bad[0], bad[1], got)
		}
	}
	if got := s.Covered(); got != 40 {
		t.Fatalf("Covered = %d", got)
	}
	if first, last, ok := s.Bounds(); !ok || first != 0 || last != 39 {
		t.Fatalf("Bounds = %d, %d, %v", first, last, ok)
	}
	// A set that does not start at 0 has no prefix.
	var tail Set[int64]
	tail.Add(10, 19)
	if got := tail.Prefix(); got != 0 {
		t.Fatalf("Prefix of [10,19] = %d", got)
	}
	if _, _, ok := new(Set[int64]).Bounds(); ok {
		t.Fatal("empty set has Bounds")
	}
}

// TestExtremes holds the values at both ends of uint64: 0 and
// math.MaxUint64 are members like any other, and ranges touching them merge
// without wrapping.
func TestExtremes(t *testing.T) {
	var s Set[uint64]
	if got := s.Add(math.MaxUint64, math.MaxUint64); got != 1 {
		t.Fatalf("Add(max,max) = %d", got)
	}
	if !s.Contains(math.MaxUint64) || s.Contains(math.MaxUint64-1) || s.Contains(0) {
		t.Fatalf("membership wrong: %v", s.r)
	}
	if got := s.Add(math.MaxUint64, math.MaxUint64); got != 0 {
		t.Fatalf("second Add(max,max) = %d", got)
	}
	s.Add(0, 0)
	if s.Len() != 2 || s.Prefix() != 1 {
		t.Fatalf("0 and max merged across the wrap: %v", s.r)
	}
	s.Add(math.MaxUint64-1, math.MaxUint64-1)
	if s.Len() != 2 || s.r[1] != (Range[uint64]{math.MaxUint64 - 1, math.MaxUint64}) {
		t.Fatalf("adjacent to max did not merge: %v", s.r)
	}
	s.DropFirst(1)
	if s.Contains(0) || s.Prefix() != 0 || !s.Contains(math.MaxUint64) {
		t.Fatalf("DropFirst(1) = %v", s.r)
	}
	s.DropFirst(5)
	if s.Len() != 0 {
		t.Fatalf("DropFirst past the end left %v", s.r)
	}
}

// FuzzSet applies arbitrary Adds, lookups and DropFirsts to a Set and to a
// 64-value bitmap, on uint64 and int64 elements, placed at 0 or at the top
// of the type so the ends of the value space are exercised. After every
// operation the ranges must be sorted, merged (no two overlap or touch) and
// non-empty, and must hold exactly the bitmap's values; Add's count, Covered,
// Prefix, Bounds and Contains must agree with it. Run with
// `go test -run XXX -fuzz FuzzSet ./internal/span`.
func FuzzSet(f *testing.F) {
	// Three bytes per operation: kind, two values (see checkSet).
	f.Add(byte(0), []byte{0, 0, 9, 0, 20, 29, 0, 5, 24, 0, 30, 39, 2, 39, 0})
	f.Add(byte(1), []byte{0, 63, 63, 0, 0, 0, 0, 62, 62, 2, 63, 0})
	f.Add(byte(2), []byte{0, 1, 1, 0, 3, 3, 0, 5, 5, 3, 2, 0, 0, 2, 2})
	f.Add(byte(3), []byte{0, 60, 63, 0, 0, 3, 3, 1, 0, 0, 10, 4})
	f.Fuzz(func(t *testing.T, mode byte, script []byte) {
		switch mode % 4 {
		case 0:
			checkSet[uint64](t, 0, script)
		case 1:
			checkSet[uint64](t, math.MaxUint64-63, script)
		case 2:
			checkSet[int64](t, 0, script)
		case 3:
			checkSet[int64](t, math.MaxInt64-63, script)
		}
	})
}

// checkSet plays script against a Set whose values are base+0..base+63 and
// a bitmap reference (bit k stands for base+k).
func checkSet[T Int](t *testing.T, base T, script []byte) {
	var s Set[T]
	var ref uint64
	for i := 0; i+2 < len(script) && i < 3*256; i += 3 {
		a, b := script[i+1]%64, script[i+2]%64
		switch script[i] % 4 {
		case 0, 1:
			var want uint64
			if a <= b {
				want = (^uint64(0) >> (63 - (b - a))) << a
			}
			if got := s.Add(base+T(a), base+T(b)); uint64(got) != uint64(bits.OnesCount64(want&^ref)) {
				t.Fatalf("Add(+%d,+%d) = %d over %064b", a, b, got, ref)
			}
			ref |= want
		case 2:
			if got, want := s.Contains(base+T(a)), ref&(1<<a) != 0; got != want {
				t.Fatalf("Contains(+%d) = %v over %064b", a, got, ref)
			}
		case 3:
			n := int(a) % (s.Len() + 1)
			for k := 0; k < n; k++ { // clear the lowest run of ones
				low := ref & -ref
				ref &^= (ref + low) ^ ref // the run and the zero above it
			}
			s.DropFirst(n)
		}

		var held uint64
		for k, r := range s.r {
			if r.Last < r.First || r.First < base {
				t.Fatalf("range %d malformed: %+v", k, r)
			}
			if k > 0 && (s.r[k-1].Last >= r.First || r.First-s.r[k-1].Last < 2) {
				t.Fatalf("ranges unsorted or unmerged: %+v then %+v", s.r[k-1], r)
			}
			lo, hi := uint64(r.First-base), uint64(r.Last-base)
			held |= (^uint64(0) >> (63 - (hi - lo))) << lo
		}
		if held != ref {
			t.Fatalf("set holds %064b, want %064b", held, ref)
		}
		if got := s.Covered(); uint64(got) != uint64(bits.OnesCount64(ref)) {
			t.Fatalf("Covered = %d over %064b", got, ref)
		}
		wantPrefix := uint64(0)
		if base == 0 {
			wantPrefix = uint64(bits.TrailingZeros64(^ref))
		}
		if got := s.Prefix(); uint64(got) != wantPrefix {
			t.Fatalf("Prefix = %d over %064b", got, ref)
		}
		first, last, ok := s.Bounds()
		if ok != (ref != 0) || ok && (uint64(first-base) != uint64(bits.TrailingZeros64(ref)) ||
			uint64(last-base) != uint64(63-bits.LeadingZeros64(ref))) {
			t.Fatalf("Bounds = %d, %d, %v over %064b", first, last, ok, ref)
		}
	}
}
