package core

import (
	"bytes"
	"maps"
	"math/rand"
	"testing"
	"time"

	"mtp/internal/wire"
)

// fuzzEnv is a minimal Env for driving a lone receiver endpoint: it records
// outputs (which must all be ACK/NACK traffic — a pure receiver never emits
// data) and lets the fuzz body advance time and fire timers by hand.
type fuzzEnv struct {
	now     time.Duration
	timerAt time.Duration
	acks    int
}

func (fe *fuzzEnv) Now() time.Duration { return fe.now }

func (fe *fuzzEnv) Output(pkt *Outbound) {
	if pkt.Hdr.Type == wire.TypeData {
		panic("receiver emitted a data packet")
	}
	fe.acks++
}

func (fe *fuzzEnv) SetTimer(t time.Duration) { fe.timerAt = t }

// FuzzReassembly drives the receiver-side reassembly state machine with an
// arbitrary schedule of segment arrivals — out-of-order, duplicated,
// trimmed, corrupted, with inconsistent header geometry (bogus PktLen /
// PktOffset / resized MsgPkts / shrunk MsgBytes, as an in-network mutator
// could produce) — interleaved with timer fires. Run with
// `go test -fuzz=FuzzReassembly ./internal/core`.
//
// Invariants: never panic; each message is delivered at most once; a
// delivered payload slice always matches the reported size; and when every
// segment arrived intact and consistent, the delivered bytes equal the
// original message exactly. Each schedule then runs a second time cut into
// batch brackets of random size 1..32 (as a recvmmsg reader would feed it):
// the same messages must be delivered, no ack batch may stay pending after
// EndBatch, and the bracketed run may not emit more ACK packets.
func FuzzReassembly(f *testing.F) {
	// Seeds: clean in-order, reverse order, duplicates, trims, out-of-range
	// packet numbers, header mutations, and timer-heavy schedules. Two bytes
	// per event: packet selector, flag bits (see the fuzz body).
	f.Add(byte(1), []byte{0, 0})
	f.Add(byte(4), []byte{3, 0, 2, 0, 1, 0, 0, 0})
	f.Add(byte(3), []byte{0, 0, 0, 0, 1, 0, 1, 0, 2, 0})
	f.Add(byte(2), []byte{0, 1, 0, 0, 1, 1, 1, 0})            // trims then data
	f.Add(byte(2), []byte{5, 0, 0, 0, 1, 0})                  // out-of-range pkt
	f.Add(byte(3), []byte{0, 2, 1, 4, 2, 8})                  // corrupt + bogus len/off
	f.Add(byte(3), []byte{0, 16, 1, 32, 2, 0})                // grow/shrink geometry
	f.Add(byte(4), []byte{0, 128, 1, 128, 2, 128, 3, 128})    // timer between arrivals
	f.Add(byte(5), []byte{4, 64, 3, 64, 2, 64, 1, 64, 0, 64}) // synthetic payloads

	f.Fuzz(func(t *testing.T, npktsB byte, script []byte) {
		plain, plainAcks := runReassembly(t, npktsB, script, false)
		cut, cutAcks := runReassembly(t, npktsB, script, true)
		if !maps.Equal(plain, cut) {
			t.Fatalf("bracketing changed the delivered set: %v vs %v", cut, plain)
		}
		if cutAcks > plainAcks {
			t.Fatalf("bracketed run sent %d ACK packets, unbracketed %d", cutAcks, plainAcks)
		}
	})
}

// runReassembly plays one FuzzReassembly schedule into a lone receiver and
// returns the delivery count per message and the ACK packets emitted. With
// bracketed set the arrivals are cut into batch brackets of random size.
func runReassembly(t *testing.T, npktsB byte, script []byte, bracketed bool) (map[uint64]int, int) {
	const fmss = 64
	npkts := 1 + int(npktsB%15)
	msgBytes := npkts*fmss - 13 // last packet deliberately short
	if msgBytes <= 0 {
		msgBytes = fmss - 13
	}
	ref := make([]byte, msgBytes)
	for i := range ref {
		ref[i] = byte(i*31 + 7)
	}

	env := &fuzzEnv{}
	deliveries := make(map[uint64]int)
	sawBad := false // any malformed/mutated segment fed this run
	ep := NewEndpoint(env, Config{
		LocalPort: 9,
		MSS:       fmss,
		RTO:       time.Millisecond,
		OnMessage: func(m *InMessage) {
			deliveries[m.MsgID]++
			if deliveries[m.MsgID] > 1 {
				t.Fatalf("message %d delivered %d times", m.MsgID, deliveries[m.MsgID])
			}
			if m.Data != nil && len(m.Data) != m.Size {
				t.Fatalf("payload len %d != reported size %d", len(m.Data), m.Size)
			}
			if !sawBad && m.Data != nil && !bytes.Equal(m.Data, ref) {
				t.Fatalf("clean reassembly corrupted: got %d bytes, want %d", len(m.Data), len(ref))
			}
		},
	})

	segment := func(pn int) (wire.Header, []byte) {
		off := pn * fmss
		ln := msgBytes - off
		if ln > fmss {
			ln = fmss
		}
		if ln < 0 {
			ln = 0
		}
		hdr := wire.Header{
			Type:      wire.TypeData,
			SrcPort:   7,
			DstPort:   9,
			MsgID:     1,
			MsgBytes:  uint32(msgBytes),
			MsgPkts:   uint32(npkts),
			PktNum:    uint32(pn),
			PktOffset: uint32(off),
			PktLen:    uint16(ln),
		}
		if off < 0 || off > msgBytes {
			return hdr, nil
		}
		return hdr, ref[off : off+ln]
	}

	// left counts the packets the open bracket still admits (0: closed).
	rng := rand.New(rand.NewSource(int64(npktsB)<<16 + int64(len(script))))
	left := 0
	endBracket := func() {
		if left = 0; !bracketed {
			return
		}
		ep.EndBatch()
		if n := len(ep.ackOrder); n != 0 {
			t.Fatalf("%d ack batches pending after EndBatch", n)
		}
	}

	for i := 0; i+1 < len(script) && i < 512; i += 2 {
		pn := int(script[i]) % (npkts + 2) // may exceed MsgPkts
		flags := script[i+1]
		hdr, data := segment(pn)
		if pn >= npkts {
			sawBad = true
		}
		trimmed := false
		if flags&1 != 0 { // trimmed: payload stripped in-network
			data = nil
			trimmed = true
		}
		if flags&2 != 0 && len(data) > 0 { // corrupt payload bytes
			data = append([]byte(nil), data...)
			data[0] ^= 0xA5
			sawBad = true
		}
		if flags&4 != 0 { // bogus PktLen
			hdr.PktLen = 0xFFFF
			sawBad = true
		}
		if flags&8 != 0 { // bogus PktOffset
			hdr.PktOffset = uint32(msgBytes) + 7
			sawBad = true
		}
		if flags&16 != 0 { // in-network resize: more packets
			hdr.MsgPkts = uint32(npkts) + 3
			sawBad = true
		}
		if flags&32 != 0 { // in-network resize: fewer bytes
			hdr.MsgBytes = uint32(msgBytes / 2)
			sawBad = true
		}
		if flags&64 != 0 { // synthetic arrival (no payload bytes carried)
			data = nil
		}
		env.now += 10 * time.Microsecond
		if bracketed && left == 0 {
			left = 1 + rng.Intn(32)
			ep.BeginBatch()
		}
		ep.OnPacket(&Inbound{From: "peer", Hdr: &hdr, Data: data, Trimmed: trimmed})
		if left--; left <= 0 {
			endBracket()
		}
		if flags&128 != 0 && env.timerAt > 0 { // fire the pending timer
			endBracket() // timers never run inside a bracket
			if env.timerAt > env.now {
				env.now = env.timerAt
			}
			ep.OnTimer(env.now)
		}
	}

	endBracket()

	// Let delayed acks, NACK timers, and the receive-timeout GC run.
	for i := 0; i < 3; i++ {
		env.now += 60 * time.Millisecond
		ep.OnTimer(env.now)
	}
	return deliveries, env.acks
}
