package core

import (
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
// treated as duplicates (implied membership).
func TestFloorPrunesDedupState(t *testing.T) {
	env := &captureEnv{}
	delivered := 0
	ep := NewEndpoint(env, Config{LocalPort: 2, OnMessage: func(m *InMessage) { delivered++ }})

	const n = 1000
	for id := uint64(1); id <= n; id++ {
		// The sender's floor trails one message behind its newest.
		ep.OnPacket(dedupData(1, id, id))
	}
	pd := ep.peers["peer"].dedup(1)
	if pd == nil {
		t.Fatal("no per-peer dedup state allocated")
	}
	if len(pd.done) > 2 {
		t.Fatalf("floor did not prune: %d entries retained", len(pd.done))
	}
	// A straggler far below the floor is a duplicate, not a fresh delivery.
	ep.OnPacket(dedupData(1, 3, n))
	if delivered != n {
		t.Fatalf("below-floor straggler re-delivered (delivered = %d)", delivered)
	}
}

// TestFloorlessPeerBestEffort covers senders that never advertise a floor
// (in-network devices, foreign stacks): their done set must stay bounded at
// doneCap, recent IDs still dedup, and eviction must never advance the floor.
func TestFloorlessPeerBestEffort(t *testing.T) {
	env := &captureEnv{}
	delivered := 0
	ep := NewEndpoint(env, Config{LocalPort: 2, OnMessage: func(m *InMessage) { delivered++ }})

	total := uint64(doneCap + doneCap/2)
	for id := uint64(1); id <= total; id++ {
		ep.OnPacket(dedupData(1, id, 0))
	}
	pd := ep.peers["peer"].dedup(1)
	if len(pd.done) > doneCap {
		t.Fatalf("floorless done set unbounded: %d entries", len(pd.done))
	}
	if pd.floor != 0 {
		t.Fatalf("eviction advanced the floor to %d; unseen IDs would become false duplicates", pd.floor)
	}
	// The newest ID is still suppressed.
	ep.OnPacket(dedupData(1, total, 0))
	if delivered != int(total) {
		t.Fatalf("recent retransmission re-delivered (delivered = %d)", delivered)
	}
}
