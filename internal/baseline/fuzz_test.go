package baseline

import (
	"testing"

	"mtp/internal/sim"
	"mtp/internal/simnet"
)

// FuzzQUICStreamReassembly drives the QUIC receiver's per-stream
// reassembly with an arbitrary schedule of stream frames — out-of-order,
// duplicated, overlapping, with malformed offsets (shifted, negative),
// oversum lengths past the FIN, conflicting FINs, frames beyond the
// flow-control credit, corrupted packets, and frames for a second stream or
// a foreign connection. Run with
// `go test -fuzz=FuzzQUICStreamReassembly ./internal/baseline`.
//
// Invariants: never panic; each stream completes at most once; Delivered
// equals the sum of completed stream sizes; received bytes stay at
// non-negative offsets within the flow-control window; out-of-order
// occupancy accounting never goes negative; and a stream that saw only
// intact frames covering every packet completes at exactly its true size.
// The range set's own structure (sorted, merged, non-empty ranges) is
// span.FuzzSet's to check.
func FuzzQUICStreamReassembly(f *testing.F) {
	// Two bytes per event: packet selector, flag bits (see the fuzz body).
	f.Add(byte(3), []byte{0, 0, 1, 0, 2, 0})                                     // clean in-order
	f.Add(byte(4), []byte{3, 0, 2, 0, 1, 0, 0, 0})                               // reverse order
	f.Add(byte(3), []byte{0, 1, 1, 4, 2, 4, 0, 0, 1, 0, 2, 0})                   // shifted + oversum then clean
	f.Add(byte(2), []byte{0, 2, 1, 2, 0, 0, 1, 0})                               // negative offsets
	f.Add(byte(4), []byte{1, 16, 0, 0, 1, 0, 2, 0, 3, 0})                        // early bogus FIN
	f.Add(byte(3), []byte{0, 64, 1, 32, 2, 8, 0, 0, 2, 0})                       // dup + corrupt + empty frame
	f.Add(byte(5), []byte{0, 128, 1, 128, 0, 0, 2, 128, 1, 0, 2, 0, 3, 0, 4, 0}) // second stream interleaved
	f.Add(byte(6), []byte{7, 0, 6, 0, 5, 4, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0})       // out-of-range pkt + oversum
	f.Add(byte(3), []byte{1, 3, 0, 0, 1, 0, 2, 0})                               // beyond credit then clean

	f.Fuzz(func(t *testing.T, npktsB byte, script []byte) {
		const qmss = 64
		npkts := 1 + int(npktsB%15)
		size := int64(npkts*qmss - 13) // last frame deliberately short
		if size <= 0 {
			size = qmss - 13
		}

		eng := sim.NewEngine(1)
		completions := map[uint64]int64{}
		acks := 0
		rcv := NewQUICReceiver(eng, Route{Pool: simnet.NewNetwork(eng), Emit: func(pkt *simnet.Packet) {
			qp, ok := pkt.Payload.(*QUICPacket)
			if !ok || !qp.Ack {
				panic("receiver emitted a non-ack packet")
			}
			acks++
		}}, QUICReceiverConfig{
			Conn: 1, Src: 2,
			OnStream: func(_ sim.Time, stream uint64, sz int64) {
				if _, dup := completions[stream]; dup {
					t.Fatalf("stream %d completed twice", stream)
				}
				completions[stream] = sz
			},
		})

		// frame builds the intact frame for packet pn of an npkts-packet
		// stream (offsets past the stream end yield empty non-FIN frames,
		// which the receiver must reject as malformed).
		frame := func(pn int) (off, n int64, fin bool) {
			off = int64(pn) * qmss
			n = size - off
			if n > qmss {
				n = qmss
			}
			if n < 0 {
				n = 0
			}
			return off, n, off+n == size && n > 0
		}

		type streamTrack struct {
			clean   uint64 // bitmask of packet numbers delivered intact
			sawBad  bool   // any mutated frame touched this stream
			touched bool
		}
		tracks := map[uint64]*streamTrack{}
		pktNum := uint64(0)

		for i := 0; i+1 < len(script) && i < 512; i += 2 {
			pn := int(script[i]) % (npkts + 2) // may point past the stream
			flags := script[i+1]
			off, n, fin := frame(pn)

			stream := uint64(1)
			if flags&0x80 != 0 {
				stream = 2
			}
			wrongConn := flags&0x40 != 0 && flags&0x20 != 0 // both ⇒ foreign conn
			mutated := pn >= npkts
			switch flags & 0x03 {
			case 0x01:
				off += 7
			case 0x02:
				off -= 5
			case 0x03:
				off += quicStreamWindow // past the flow-control credit
			}
			if flags&0x03 != 0 {
				mutated = true
			}
			if flags&0x04 != 0 {
				n += 13
				mutated = true
			}
			if flags&0x08 != 0 {
				n = 0
				mutated = true
			}
			if flags&0x10 != 0 {
				fin = !fin
				mutated = true
			}
			corrupted := flags&0x20 != 0 && !wrongConn

			tr := tracks[stream]
			if tr == nil {
				tr = &streamTrack{}
				tracks[stream] = tr
			}

			pktNum++
			qp := &QUICPacket{Conn: 1, PktNum: pktNum, Stream: stream, Offset: off, Len: int(n), Fin: fin}
			if wrongConn {
				qp.Conn = 99
			}
			repeats := 1
			if flags&0x40 != 0 && !wrongConn {
				repeats = 2 // duplicate delivery of the same packet
			}
			ackBefore, rcvdBefore := acks, rcv.PktsRcvd
			for r := 0; r < repeats; r++ {
				rcv.OnPacket(&simnet.Packet{Payload: qp, Corrupted: corrupted})
			}
			if corrupted || wrongConn {
				if acks != ackBefore || rcv.PktsRcvd != rcvdBefore {
					t.Fatalf("corrupted/foreign packet was processed (acks %d→%d)", ackBefore, acks)
				}
			} else {
				if acks != ackBefore+repeats {
					t.Fatalf("data packet not acked: %d → %d (want +%d)", ackBefore, acks, repeats)
				}
				tr.touched = true
				if mutated {
					tr.sawBad = true
				} else if pn < npkts {
					tr.clean |= 1 << uint(pn)
				}
			}

			// Structural invariants after every event.
			if rcv.Buffered < 0 {
				t.Fatalf("negative buffered occupancy: %d", rcv.Buffered)
			}
			if rcv.MaxBuffered < rcv.Buffered {
				t.Fatalf("MaxBuffered %d < Buffered %d", rcv.MaxBuffered, rcv.Buffered)
			}
			for id, st := range rcv.streams {
				first, last, ok := st.got.Bounds()
				if ok && first < 0 {
					t.Fatalf("stream %d holds a negative offset %d", id, first)
				}
				if ok && last >= st.consumed+quicStreamWindow {
					t.Fatalf("stream %d holds bytes past flow-control credit: %d >= %d", id, last, st.consumed+quicStreamWindow)
				}
			}
		}

		var wantDelivered int64
		for _, sz := range completions {
			wantDelivered += sz
		}
		if rcv.Delivered != wantDelivered || rcv.StreamsDone != len(completions) {
			t.Fatalf("delivered %d/%d streams %d/%d mismatch with completion callbacks",
				rcv.Delivered, wantDelivered, rcv.StreamsDone, len(completions))
		}
		full := uint64(1)<<uint(npkts) - 1
		for id, tr := range tracks {
			if tr.touched && !tr.sawBad && tr.clean == full {
				if sz, ok := completions[id]; !ok || sz != size {
					t.Fatalf("stream %d saw every intact frame but did not complete at %d (completions: %v)",
						id, size, completions)
				}
			}
		}
	})
}
