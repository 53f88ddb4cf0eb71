package udpnet

import (
	"sync/atomic"
)

// ring is a bounded lock-free multi-producer multi-consumer queue (Vyukov's
// bounded MPMC algorithm). Producers are Transport.Queue callers — usually one
// goroutine at a time (the endpoint runs under its owner's lock) but the
// transport makes no such assumption — and the consumer is whichever Flush
// caller holds the transport's write lock, draining datagrams into sendmmsg
// batches. Push never blocks: a full ring reports failure and the caller drops
// the datagram, exactly like a full NIC queue; MTP's reliability layer
// recovers the loss.
type ring struct {
	mask  uint64
	cells []ringCell
	_     [48]byte // keep enq/deq on separate cache lines from the header
	enq   atomic.Uint64
	_     [56]byte
	deq   atomic.Uint64
}

type ringCell struct {
	seq atomic.Uint64
	val *dgram
}

// newRing returns a ring with the given capacity rounded up to a power of
// two (minimum 2).
func newRing(capacity int) *ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &ring{mask: uint64(n - 1), cells: make([]ringCell, n)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// push enqueues d, reporting false when the ring is full.
func (r *ring) push(d *dgram) bool {
	pos := r.enq.Load()
	for {
		cell := &r.cells[pos&r.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				cell.val = d
				cell.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case seq < pos:
			return false // full: the cell still holds a value a lap behind
		default:
			pos = r.enq.Load()
		}
	}
}

// empty reports whether a pop would find nothing now. A push that has claimed
// the next cell but not yet filled it counts as empty, since its caller
// flushes after it, and so may a pop racing the call, since the popper holds
// the write lock and looks again after letting go (Transport.Flush).
func (r *ring) empty() bool {
	pos := r.deq.Load()
	return r.cells[pos&r.mask].seq.Load() != pos+1
}

// pop dequeues one datagram, reporting false when the ring is empty.
func (r *ring) pop() (*dgram, bool) {
	pos := r.deq.Load()
	for {
		cell := &r.cells[pos&r.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos+1:
			if r.deq.CompareAndSwap(pos, pos+1) {
				d := cell.val
				cell.val = nil
				cell.seq.Store(pos + r.mask + 1)
				return d, true
			}
			pos = r.deq.Load()
		case seq <= pos:
			return nil, false // empty
		default:
			pos = r.deq.Load()
		}
	}
}
