// Package span keeps a set of integers as sorted, merged ranges: the
// delivered message IDs behind MTP's duplicate suppression, and the received
// or acknowledged byte offsets of the rival stream transports (QUIC's stream
// reassembly and acknowledged bytes, MPTCP's merged global stream). RFC 9000
// §19.3 keeps the same structure for its ACK ranges.
//
// A range is closed, [First, Last], so every value of the element type can
// be a member: a half-open [id, id+1) cannot hold math.MaxUint64.
package span

import "slices"

// Int is the element type: byte offsets (int64) or message IDs (uint64).
type Int interface{ ~int64 | ~uint64 }

// Range is the closed range [First, Last].
type Range[T Int] struct{ First, Last T }

// Set is a set of T kept as sorted, disjoint, non-adjacent ranges. The zero
// value is the empty set.
type Set[T Int] struct{ r []Range[T] }

// search returns the index of the first range that ends at or after x-1:
// the first range x touches or precedes. x-1 is never computed, so x = 0
// does not wrap.
func (s *Set[T]) search(x T) int {
	lo, hi := 0, len(s.r)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l := s.r[m].Last; l >= x || l+1 == x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Add inserts [first, last], merging it with the ranges it overlaps or
// touches, and returns how many of its values were not in the set (modulo
// the type's range: all of uint64 counts as 0). last < first adds nothing.
func (s *Set[T]) Add(first, last T) T {
	if last < first {
		return 0
	}
	i := s.search(first)
	j := i
	n := last - first + 1
	nf, nl := first, last
	for ; j < len(s.r) && (s.r[j].First <= last || s.r[j].First-1 == last); j++ {
		r := s.r[j]
		if lo, hi := max(r.First, first), min(r.Last, last); lo <= hi {
			n -= hi - lo + 1
		}
		nf, nl = min(nf, r.First), max(nl, r.Last)
	}
	if i == j {
		s.r = slices.Insert(s.r, i, Range[T]{first, last})
	} else {
		s.r[i] = Range[T]{nf, nl}
		s.r = slices.Delete(s.r, i+1, j)
	}
	return n
}

// Contains reports whether x is in the set.
func (s *Set[T]) Contains(x T) bool {
	i := s.search(x)
	return i < len(s.r) && s.r[i].First <= x && x <= s.r[i].Last
}

// Prefix returns how many values from 0 up are in the set without a gap:
// the in-order prefix of a byte stream.
func (s *Set[T]) Prefix() T {
	if len(s.r) == 0 || s.r[0].First != 0 {
		return 0
	}
	return s.r[0].Last + 1
}

// Covered returns how many values the set holds.
func (s *Set[T]) Covered() T {
	var n T
	for _, r := range s.r {
		n += r.Last - r.First + 1
	}
	return n
}

// Bounds returns the lowest and the highest value in the set; ok is false
// when it is empty.
func (s *Set[T]) Bounds() (first, last T, ok bool) {
	if len(s.r) == 0 {
		return 0, 0, false
	}
	return s.r[0].First, s.r[len(s.r)-1].Last, true
}

// Len returns the number of ranges.
func (s *Set[T]) Len() int { return len(s.r) }

// DropFirst forgets the n lowest ranges (all of them when n >= Len).
func (s *Set[T]) DropFirst(n int) {
	s.r = slices.Delete(s.r, 0, min(n, len(s.r)))
}
