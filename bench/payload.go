package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Every benchmark payload starts with a 16-byte stamp so the receiving side
// can prove it got the right bytes exactly once:
//
//	[0]     workload id
//	[1]     generator (worker) index
//	[2:4]   zero
//	[4:12]  per-generator sequence number, from 1
//	[12:16] CRC32C over the body (bytes 16..) followed by bytes 0..12
//
// Putting the stamp after the body in CRC order lets a generator keep its
// body's checksum and re-stamp a message in O(16) bytes, while the sink still
// verifies every byte it was handed.
const stampLen = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// newBody returns a size-byte message buffer whose body is seeded random
// bytes, stamped with the workload and generator, and the body's checksum.
func newBody(size int, workload, gen uint8, seed int64) ([]byte, uint32) {
	buf := make([]byte, size)
	rng := rand.New(rand.NewSource(seed<<8 | int64(gen)))
	rng.Read(buf[stampLen:])
	buf[0], buf[1] = workload, gen
	return buf, crc32.Checksum(buf[stampLen:], castagnoli)
}

// stamp writes seq and the final checksum into a buffer from newBody.
func stamp(buf []byte, bodyCRC uint32, seq uint64) {
	binary.BigEndian.PutUint64(buf[4:12], seq)
	binary.BigEndian.PutUint32(buf[12:16], crc32.Update(bodyCRC, castagnoli, buf[:12]))
}

// checkStamp verifies a received payload and returns its generator and
// sequence number.
func checkStamp(data []byte, workload uint8, size int) (gen uint8, seq uint64, ok bool) {
	if len(data) != size || size < stampLen || data[0] != workload {
		return 0, 0, false
	}
	sum := crc32.Update(crc32.Checksum(data[stampLen:], castagnoli), castagnoli, data[:12])
	if sum != binary.BigEndian.Uint32(data[12:16]) {
		return 0, 0, false
	}
	return data[1], binary.BigEndian.Uint64(data[4:12]), true
}

// ledger is the receiving side's account of what arrived. Generators are
// closed-loop and number their messages consecutively, so exactly-once means
// each generator's sequence numbers 1, 2, 3, ... each arrive once. They need
// not arrive in order: a Node hands completed messages to OnMessage from its
// reader and its timer goroutine, and one of them may be descheduled between
// taking a message and delivering it. Each generator therefore gets a 64-wide
// window above the lowest number not yet seen; anything beyond it counts as
// skipped.
type ledger struct {
	workload uint8
	size     int
	gens     []genLedger

	delivered, corrupt, duplicate, skipped atomic.Int64
}

type genLedger struct {
	mu   sync.Mutex
	next uint64 // lowest sequence number not yet seen
	seen uint64 // bit i set: next+i has been seen
}

func newLedger(workload uint8, size, gens int) *ledger {
	l := &ledger{workload: workload, size: size, gens: make([]genLedger, gens)}
	for i := range l.gens {
		l.gens[i].next = 1
	}
	return l
}

// deliver accounts one received payload and returns its generator and
// sequence number (ok false when it failed verification).
func (l *ledger) deliver(data []byte) (gen uint8, seq uint64, ok bool) {
	gen, seq, ok = checkStamp(data, l.workload, l.size)
	if !ok || int(gen) >= len(l.gens) {
		l.corrupt.Add(1)
		return gen, seq, false
	}
	g := &l.gens[gen]
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case seq < g.next || (seq-g.next < 64 && g.seen&(1<<(seq-g.next)) != 0):
		l.duplicate.Add(1)
	case seq-g.next >= 64:
		l.skipped.Add(1)
	default:
		l.delivered.Add(1)
		g.seen |= 1 << (seq - g.next)
		for g.seen&1 != 0 {
			g.seen >>= 1
			g.next++
		}
	}
	return gen, seq, true
}

// faults is every delivery that was not a first, intact copy.
func (l *ledger) faults() int64 {
	return l.corrupt.Load() + l.duplicate.Load() + l.skipped.Load()
}
