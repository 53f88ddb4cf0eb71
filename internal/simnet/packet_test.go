package simnet

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mtp/internal/sim"
	"mtp/internal/wire"
)

// fullHeader has an entry in every one of the five lists.
func fullHeader() *wire.Header {
	p := wire.PathTC{PathID: 7, TC: 1}
	return &wire.Header{
		Type: wire.TypeAck, SrcPort: 1, DstPort: 2, MsgID: 42, PktNum: 3,
		PathExclude:     []wire.PathTC{p},
		PathFeedback:    []wire.Feedback{wire.ECNFeedback(p, true)},
		AckPathFeedback: []wire.Feedback{wire.DelayFeedback(p, 9)},
		SACK:            []wire.PacketRef{{MsgID: 42, PktNum: 1}, {MsgID: 42, PktNum: 2}},
		NACK:            []wire.PacketRef{{MsgID: 42, PktNum: 0}},
	}
}

// TestSetHeaderOwnsItsCopy: the packet's header is a deep copy — rewriting
// the source (as the endpoint does for its next packet) or stamping the
// packet (as switches do) never shows on the other side — and its list
// storage survives release, so a recycled packet carries and grows a header
// without allocating.
func TestSetHeaderOwnsItsCopy(t *testing.T) {
	net := NewNetwork(sim.NewEngine(1))
	src, want := fullHeader(), fullHeader()
	p := net.AllocPacket()
	p.SetHeader(src)
	if !reflect.DeepEqual(p.Hdr, want) {
		t.Fatalf("copy differs: %v, want %v", p.Hdr, want)
	}

	// The endpoint rewrites its scratch in place.
	src.PathExclude[0].PathID = 99
	src.PathFeedback[0] = wire.ECNFeedback(wire.PathTC{PathID: 99}, false)
	src.AckPathFeedback[0] = wire.DelayFeedback(wire.PathTC{PathID: 99}, 0)
	src.SACK[1].PktNum = 99
	src.NACK[0].PktNum = 99
	if !reflect.DeepEqual(p.Hdr, want) {
		t.Fatalf("packet header aliases the source's lists: %v", p.Hdr)
	}
	// A switch stamps the packet.
	*src = *fullHeader()
	p.Hdr.AddPathFeedback(wire.ECNFeedback(wire.PathTC{PathID: 8}, true))
	p.Hdr.SACK[0].PktNum = 77
	if !reflect.DeepEqual(src, want) {
		t.Fatalf("stamping the packet reached the source header: %v", src)
	}

	caps := [5]int{cap(p.Hdr.PathExclude), cap(p.Hdr.PathFeedback), cap(p.Hdr.AckPathFeedback), cap(p.Hdr.SACK), cap(p.Hdr.NACK)}
	net.ReleasePacket(p)
	q := net.AllocPacket()
	if q != p || q.Hdr != nil {
		t.Fatalf("recycled packet: same=%v Hdr=%v, want the released packet with no header", q == p, q.Hdr)
	}
	q.SetHeader(&wire.Header{Type: wire.TypeData, MsgID: 5})
	if !reflect.DeepEqual(*q.Hdr, wire.Header{Type: wire.TypeData, MsgID: 5,
		PathExclude: []wire.PathTC{}, PathFeedback: []wire.Feedback{}, AckPathFeedback: []wire.Feedback{},
		SACK: []wire.PacketRef{}, NACK: []wire.PacketRef{}}) {
		t.Fatalf("recycled header carries stale state: %v", q.Hdr)
	}
	got := [5]int{cap(q.Hdr.PathExclude), cap(q.Hdr.PathFeedback), cap(q.Hdr.AckPathFeedback), cap(q.Hdr.SACK), cap(q.Hdr.NACK)}
	if got != caps {
		t.Fatalf("list capacities after recycle = %v, want %v", got, caps)
	}
	net.ReleasePacket(q)

	stamp := wire.ECNFeedback(wire.PathTC{PathID: 8}, true)
	if n := testing.AllocsPerRun(100, func() {
		r := net.AllocPacket()
		r.SetHeader(want)
		r.Hdr.AddPathFeedback(stamp)
		net.ReleasePacket(r)
	}); n != 0 {
		t.Fatalf("alloc/SetHeader/stamp/release cycle allocates %v times, want 0", n)
	}
}

// TestDuplicateOwnsItsHeader: the duplication fault copies the packet struct,
// which must not leave the duplicate sharing header storage with the
// original — each is recycled on its own.
func TestDuplicateOwnsItsHeader(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	a, b := NewHost(net), NewHost(net)
	l := net.Connect(b, LinkConfig{Rate: 1e9, Delay: us(10)}, "a->b")
	l.SetDuplicate(1, rand.New(rand.NewSource(1)))
	a.SetUplink(l)
	want := fullHeader()
	arrivals := 0
	b.SetHandler(func(pkt *Packet) {
		arrivals++
		if !reflect.DeepEqual(pkt.Hdr, want) {
			t.Errorf("arrival %d: header %v, want %v", arrivals, pkt.Hdr, want)
		}
		// Scribble on this copy; the other, still in flight, must not see it.
		pkt.Hdr.MsgID = 0
		pkt.Hdr.SACK[0].PktNum = 99
		pkt.Hdr.PathFeedback[0] = wire.ECNFeedback(wire.PathTC{PathID: 99}, false)
	})
	p := net.AllocPacket()
	p.Dst, p.Size = b.ID(), 100
	p.SetHeader(want)
	a.Send(p)
	eng.Run(time.Millisecond)
	if arrivals != 2 {
		t.Fatalf("arrivals = %d, want the packet and its duplicate", arrivals)
	}
}

// TestPoisonFreedReachesTheHeader: with poison on, a handler that kept
// pkt.Hdr, or a list sliced from it, reads sentinels once the packet is
// released rather than the next packet's header.
func TestPoisonFreedReachesTheHeader(t *testing.T) {
	SetPoisonFreed(true)
	defer SetPoisonFreed(false)
	net := NewNetwork(sim.NewEngine(1))
	p := net.AllocPacket()
	p.SetHeader(fullHeader())
	hdr, sack, fb := p.Hdr, p.Hdr.SACK, p.Hdr.PathFeedback
	net.ReleasePacket(p)
	if hdr.MsgID != ^uint64(0) || hdr.PktNum != ^uint32(0) || hdr.SACK != nil || hdr.PathFeedback != nil {
		t.Errorf("kept header reads %v, want poison", hdr)
	}
	if sack[0].MsgID != ^uint64(0) || sack[1].PktNum != ^uint32(0) {
		t.Errorf("kept SACK list reads %v, want poison", sack)
	}
	if fb[0].Path.PathID != ^uint32(0) {
		t.Errorf("kept feedback list reads %v, want poison", fb)
	}
}
