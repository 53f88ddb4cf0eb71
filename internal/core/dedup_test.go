package core

import (
	"math"
	"testing"

	"mtp/internal/wire"
)

// dedupData builds a one-packet data inbound from a given sender port with an
// explicit acknowledged-message floor.
func dedupData(srcPort uint16, msgID, floor uint64) *Inbound {
	return &Inbound{From: "peer", Hdr: &wire.Header{
		Type: wire.TypeData, SrcPort: srcPort, DstPort: 2,
		MsgFloor: floor, MsgID: msgID, MsgBytes: 1, MsgPkts: 1, PktLen: 1,
	}, Data: []byte("x")}
}

// TestFloorDedupSurvivesCrossTraffic reproduces the failure mode that sank
// the old global LRU ring: a slow sender delivers a message but freezes
// before processing the ACK, heavy traffic from another sender churns the
// receiver, and then the frozen sender thaws and retransmits. With per-peer
// floor-bounded dedup the retransmission must still be recognized as a
// duplicate no matter how much cross traffic intervened.
func TestFloorDedupSurvivesCrossTraffic(t *testing.T) {
	env := &captureEnv{}
	delivered := 0
	ep := NewEndpoint(env, Config{LocalPort: 2, OnMessage: func(m *InMessage) { delivered++ }})

	// Slow sender (port 1) delivers message 1, then goes quiet un-acked.
	ep.OnPacket(dedupData(1, 1, 1))
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}

	// Fast sender (port 9) pushes far more messages than the old 4096-entry
	// ring could hold.
	for id := uint64(1); id <= 3*doneCap; id++ {
		ep.OnPacket(dedupData(9, id, id))
	}
	if delivered != 1+3*doneCap {
		t.Fatalf("delivered = %d, want %d", delivered, 1+3*doneCap)
	}

	// The slow sender thaws and retransmits message 1 (its floor is still 1:
	// it never processed the ACK). Must re-ack, not re-deliver.
	dups := ep.Stats.PktsDuplicate
	ep.OnPacket(dedupData(1, 1, 1))
	if delivered != 1+3*doneCap {
		t.Fatalf("frozen sender's retransmission re-delivered (delivered = %d)", delivered)
	}
	if ep.Stats.PktsDuplicate != dups+1 {
		t.Fatalf("PktsDuplicate = %d, want %d", ep.Stats.PktsDuplicate, dups+1)
	}
}

// TestFloorPrunesDedupState checks that a sender's advertised floor bounds
// the receiver's per-peer done set, and that IDs below the floor are still
// treated as duplicates (implied membership). The sender delivers only odd
// IDs, so without the floor every one would be a range of its own.
func TestFloorPrunesDedupState(t *testing.T) {
	env := &captureEnv{}
	delivered := 0
	ep := NewEndpoint(env, Config{LocalPort: 2, OnMessage: func(m *InMessage) { delivered++ }})

	const n = 1000
	for k := uint64(1); k <= n; k++ {
		// The sender's floor trails one message behind its newest.
		ep.OnPacket(dedupData(1, 2*k+1, 2*k-1))
	}
	if delivered != n {
		t.Fatalf("delivered = %d, want %d", delivered, n)
	}
	pd := ep.peers["peer"].dedup(1)
	if pd == nil {
		t.Fatal("no per-peer dedup state allocated")
	}
	if pd.done.Len() > 2 {
		t.Fatalf("floor did not prune: %d ranges retained", pd.done.Len())
	}
	// Stragglers below the floor are duplicates, not fresh deliveries: a
	// delivered ID, and one the receiver never saw.
	ep.OnPacket(dedupData(1, 3, 2*n-1))
	ep.OnPacket(dedupData(1, 4, 2*n-1))
	if delivered != n {
		t.Fatalf("below-floor straggler re-delivered (delivered = %d)", delivered)
	}
}

// TestFloorlessPeerBestEffort covers senders that never advertise a floor
// (in-network devices, foreign stacks). Their IDs arrive with gaps here, one
// range each, so the set overflows doneCap: it must stay bounded, recent IDs
// must still dedup, an evicted ID is delivered again, and eviction must never
// imply a floor — an ID that was never delivered stays deliverable.
func TestFloorlessPeerBestEffort(t *testing.T) {
	env := &captureEnv{}
	delivered := 0
	ep := NewEndpoint(env, Config{LocalPort: 2, OnMessage: func(m *InMessage) { delivered++ }})

	total := uint64(doneCap + doneCap/2)
	for k := uint64(1); k <= total; k++ {
		ep.OnPacket(dedupData(1, 2*k, 0))
	}
	pd := ep.peers["peer"].dedup(1)
	if n := pd.done.Len(); n > doneCap {
		t.Fatalf("floorless done set unbounded: %d ranges", n)
	}
	if pd.floor != 0 {
		t.Fatalf("eviction set the floor to %d", pd.floor)
	}
	want := int(total)
	check := func(id uint64, redeliver bool, what string) {
		t.Helper()
		if redeliver {
			want++
		}
		ep.OnPacket(dedupData(1, id, 0))
		if delivered != want {
			t.Fatalf("%s (id %d): delivered = %d, want %d", what, id, delivered, want)
		}
	}
	check(2*total, false, "recent retransmission re-delivered")
	check(1, true, "never-delivered ID below the evicted ranges suppressed")
	check(3, true, "never-delivered ID inside the evicted ranges suppressed")
	check(2, true, "evicted ID not deliverable again")
}

// TestFloorlessInOrderIsOneRange: a floorless sender's in-order IDs merge
// into one range, so however many it sends the set never reaches doneCap and
// a very late retransmission of its first message is still suppressed.
func TestFloorlessInOrderIsOneRange(t *testing.T) {
	env := &captureEnv{}
	delivered := 0
	ep := NewEndpoint(env, Config{LocalPort: 2, OnMessage: func(m *InMessage) { delivered++ }})

	const total = 3 * doneCap
	for id := uint64(1); id <= total; id++ {
		ep.OnPacket(dedupData(1, id, 0))
	}
	if n := ep.peers["peer"].dedup(1).done.Len(); n != 1 {
		t.Fatalf("in-order IDs held as %d ranges, want 1", n)
	}
	ep.OnPacket(dedupData(1, 1, 0))
	if delivered != total {
		t.Fatalf("late retransmission of the first message re-delivered (delivered = %d)", delivered)
	}
}

// TestDedupMaxID: the last ID of the space, math.MaxUint64, is suppressed on
// its second delivery like any other, with and without a floor — including
// the floor that covers every ID below it.
func TestDedupMaxID(t *testing.T) {
	for _, floor := range []uint64{0, 5, math.MaxUint64} {
		env := &captureEnv{}
		delivered := 0
		ep := NewEndpoint(env, Config{LocalPort: 2, OnMessage: func(m *InMessage) { delivered++ }})
		ep.OnPacket(dedupData(1, 1, floor))
		ep.OnPacket(dedupData(1, math.MaxUint64, floor))
		ep.OnPacket(dedupData(1, math.MaxUint64, floor))
		if delivered != 2 {
			t.Fatalf("floor %d: delivered = %d, want 2 (ID %d twice?)", floor, delivered, uint64(math.MaxUint64))
		}
	}
}

// dedupModel is FuzzDedup's reference for one source port: whether the
// receiver holds state for it yet (a floor only applies once it does), the
// highest floor it applied, and the IDs delivered in the current epoch.
type dedupModel struct {
	seen    bool
	floor   uint64
	done    map[uint64]bool
	evicted bool // a burst overflowed doneCap: old IDs may deliver again
}

// dup reports whether the model suppresses id after applying floor.
func (m *dedupModel) dup(id, floor uint64) bool {
	if !m.seen {
		return false
	}
	if floor > m.floor {
		m.floor = floor
	}
	return id < m.floor || m.done[id]
}

func (m *dedupModel) deliver(id uint64) {
	m.seen = true
	m.done[id] = true
}

// fuzzID maps a script byte to a message ID or floor: small values as they
// are, the top five to the top of the ID space.
func fuzzID(b byte) uint64 {
	if b < 251 {
		return uint64(b)
	}
	return math.MaxUint64 - uint64(255-b)
}

// FuzzDedup drives the receiver's per-sender duplicate suppression with an
// arbitrary interleaving of one-packet messages from one peer's two source
// ports and compares each outcome with dedupModel. Port 1 advertises floors
// (retransmissions and stragglers below them included), port 3 never does
// and may send a burst of doneCap+1 gapped IDs that overflows its state. The
// peer can restart (a newer epoch, which resets its state) and old-epoch
// stragglers must be dropped. Run with
// `go test -run XXX -fuzz FuzzDedup ./internal/core`.
//
// Port 1's model is exact. Port 3's is exact until a burst; from then on an
// ID the model holds may be delivered again (best effort), but an ID it does
// not hold must always be delivered: eviction never implies a floor.
func FuzzDedup(f *testing.F) {
	// Three bytes per event: operation, ID, floor (see the fuzz body).
	f.Add([]byte{0, 1, 0, 0, 5, 3, 0, 3, 3, 0, 2, 3, 0, 5, 4})          // floor advance, ID at the floor
	f.Add([]byte{0, 255, 0, 0, 255, 0, 3, 255, 0, 3, 255, 0})           // math.MaxUint64 twice per port
	f.Add([]byte{0, 254, 0, 0, 255, 255, 0, 254, 255, 0, 253, 255})     // floor at the top of the ID space
	f.Add([]byte{3, 9, 0, 7, 0, 0, 3, 9, 0, 3, 11, 0, 3, 1, 0})         // burst, then old and fresh IDs
	f.Add([]byte{0, 4, 0, 5, 0, 0, 6, 4, 0, 0, 4, 2, 0, 4, 2, 6, 4, 0}) // restart, stragglers, reuse
	f.Add([]byte{3, 2, 0, 0, 2, 0, 0, 2, 1, 3, 2, 0, 0, 9, 12, 0, 11, 12})

	f.Fuzz(func(t *testing.T, script []byte) {
		env := &fuzzEnv{}
		delivered := 0
		ep := NewEndpoint(env, Config{LocalPort: 2, Epoch: 1, OnMessage: func(*InMessage) { delivered++ }})
		models := map[uint16]*dedupModel{}
		reset := func() {
			models[1] = &dedupModel{done: map[uint64]bool{}}
			models[3] = &dedupModel{done: map[uint64]bool{}}
		}
		reset()
		epoch, lastSeen := uint32(1), uint32(0) // the sender's, the receiver's
		burst := false

		// send feeds one message and checks the outcome against the model.
		send := func(port uint16, id, floor uint64, ep32 uint32) {
			in := dedupData(port, id, floor)
			in.Hdr.Epoch = ep32
			admit := true
			switch {
			case lastSeen == 0 || ep32 == lastSeen:
				lastSeen = ep32
			case wire.EpochNewer(ep32, lastSeen):
				lastSeen = ep32
				reset()
			default:
				admit = false
			}
			m := models[port]
			wantDup := !admit || m.dup(id, floor)
			before := delivered
			ep.OnPacket(in)
			got := delivered - before
			switch {
			case got > 1:
				t.Fatalf("port %d id %d delivered %d times by one packet", port, id, got)
			case !admit && got != 0:
				t.Fatalf("port %d id %d from dead epoch %d delivered", port, id, ep32)
			case !wantDup && got == 0:
				t.Fatalf("port %d id %d (floor %d) never delivered but suppressed as a duplicate", port, id, floor)
			case wantDup && got == 1 && !m.evicted:
				t.Fatalf("port %d id %d (floor %d) delivered twice", port, id, floor)
			}
			if admit && got == 1 {
				m.deliver(id)
			}
		}

		for i := 0; i+2 < len(script) && i < 3*256; i += 3 {
			op, id, floor := script[i]%8, fuzzID(script[i+1]), fuzzID(script[i+2])
			switch op {
			case 0, 1, 2:
				send(1, id, floor, epoch)
			case 3, 4:
				send(3, id, 0, epoch)
			case 5:
				epoch++ // the sender restarts; its next packet says so
			case 6:
				if epoch > 1 {
					send(1, id, floor, epoch-1) // straggler from the dead incarnation
				} else {
					send(1, id, floor, epoch)
				}
			case 7:
				if burst {
					send(3, id, 0, epoch)
					continue
				}
				burst = true
				for k := uint64(0); k <= doneCap; k++ {
					send(3, 256+2*k, 0, epoch)
				}
				models[3].evicted = true
			}
		}
	})
}
