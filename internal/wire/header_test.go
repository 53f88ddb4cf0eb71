package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleHeader() *Header {
	return &Header{
		Type:      TypeData,
		SrcPort:   4242,
		DstPort:   80,
		Epoch:     0xdeadbeef,
		MsgFloor:  1234567890100,
		MsgID:     1234567890123,
		MsgPri:    7,
		TC:        2,
		MsgBytes:  65536,
		MsgPkts:   46,
		PktNum:    3,
		PktOffset: 4380,
		PktLen:    1460,
		PathExclude: []PathTC{
			{PathID: 9, TC: 1},
		},
		PathFeedback: []Feedback{
			ECNFeedback(PathTC{PathID: 1, TC: 0}, true),
			RateFeedback(PathTC{PathID: 2, TC: 0}, 40e9),
		},
		AckPathFeedback: []Feedback{
			DelayFeedback(PathTC{PathID: 3, TC: 1}, 12345),
		},
		SACK: []PacketRef{{MsgID: 5, PktNum: 0}, {MsgID: 5, PktNum: 2}},
		NACK: []PacketRef{{MsgID: 5, PktNum: 1}},
	}
}

// Decode parses an encoded header from b into a fresh Header. It returns the
// header and the number of bytes consumed; the remainder of b is the payload.
func Decode(b []byte) (*Header, int, error) {
	h := &Header{}
	n, err := DecodeInto(h, b)
	if err != nil {
		return nil, 0, err
	}
	return h, n, nil
}

// QueueLenFeedback constructs a queue-occupancy feedback entry (packets).
func QueueLenFeedback(p PathTC, pkts uint32) Feedback {
	f := Feedback{Path: p, Type: FeedbackQueueLen, vlen: 4}
	binary.BigEndian.PutUint32(f.val[:], pkts)
	return f
}

// decodeAll decodes b, which must hold one header and nothing else.
func decodeAll(t *testing.T, b []byte) *Header {
	t.Helper()
	h, n, err := Decode(b)
	if err != nil || n != len(b) {
		t.Fatalf("Decode = %d of %d bytes, %v", n, len(b), err)
	}
	return h
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := sampleHeader()
	b, err := h.Encode(nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(b) != h.EncodedLen() {
		t.Fatalf("EncodedLen=%d but Encode produced %d bytes", h.EncodedLen(), len(b))
	}
	got, n, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(b) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(b))
	}
	if !reflect.DeepEqual(h, got) {
		t.Fatalf("round trip mismatch:\n want %+v\n got  %+v", h, got)
	}
}

func TestDecodeWithPayload(t *testing.T) {
	h := sampleHeader()
	b, err := h.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello in-network world")
	b = append(b, payload...)
	got, n, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(b[n:], payload) {
		t.Fatalf("payload mismatch: %q", b[n:])
	}
	if got.MsgID != h.MsgID {
		t.Fatalf("MsgID = %d, want %d", got.MsgID, h.MsgID)
	}
}

func TestDecodeEmptyLists(t *testing.T) {
	h := &Header{Type: TypeAck, SrcPort: 1, DstPort: 2, MsgID: 3}
	b, err := h.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeAll(t, b)
	if got.PathExclude != nil || got.PathFeedback != nil || got.SACK != nil || got.NACK != nil {
		t.Fatalf("expected nil lists, got %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	h := sampleHeader()
	good, err := h.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("short fixed", func(t *testing.T) {
		for i := 0; i < fixedLen; i++ {
			if _, _, err := Decode(good[:i]); err == nil {
				t.Fatalf("Decode of %d bytes succeeded", i)
			}
		}
	})
	t.Run("truncated lists", func(t *testing.T) {
		for i := fixedLen; i < len(good); i++ {
			if _, _, err := Decode(good[:i]); err == nil {
				t.Fatalf("Decode of %d/%d bytes succeeded", i, len(good))
			}
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 99
		if _, _, err := Decode(b); err == nil {
			t.Fatal("expected version error")
		}
	})
	t.Run("bad type", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[1] = 0
		if _, _, err := Decode(b); err == nil {
			t.Fatal("expected type error")
		}
		b[1] = 200
		if _, _, err := Decode(b); err == nil {
			t.Fatal("expected type error")
		}
	})
	t.Run("bad checksum", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[checksumOff] ^= 0xA5
		if _, _, err := Decode(b); err != ErrBadChecksum {
			t.Fatalf("err = %v, want ErrBadChecksum", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		// Bytes after the header are payload: Decode stops at the header.
		b := append(append([]byte(nil), good...), 0xFF)
		if _, n, err := Decode(b); err != nil || n != len(good) {
			t.Fatalf("Decode = %d bytes, %v; want the %d-byte header", n, err, len(good))
		}
	})
}

func TestValidate(t *testing.T) {
	h := &Header{Type: PacketType(9)}
	if err := h.Validate(); err != ErrBadType {
		t.Fatalf("Validate bad type = %v", err)
	}
	h = &Header{Type: TypeData, SACK: make([]PacketRef, MaxListEntries+1)}
	if err := h.Validate(); err != ErrListTooLong {
		t.Fatalf("Validate long list = %v", err)
	}
	if _, err := h.Encode(nil); err == nil {
		t.Fatal("Encode should propagate Validate error")
	}
}

func TestDecodeRejectsOversizeFeedbackValue(t *testing.T) {
	h := sampleHeader()
	b, err := h.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find the first feedback entry and inflate its value-length byte past
	// MaxFeedbackValue; the decoder must reject it before reading the value.
	off := fixedLen - 2*3 + len(h.PathExclude)*pathTCLen + feedbackFixedLen - 1
	b[off] = MaxFeedbackValue + 1
	binary.BigEndian.PutUint32(b[checksumOff:], headerChecksum(b))
	if _, _, err := Decode(b); err != ErrValueTooLong {
		t.Fatalf("Decode oversize value err = %v, want ErrValueTooLong", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	h := sampleHeader()
	c := h.Clone()
	if !reflect.DeepEqual(h, c) {
		t.Fatal("clone differs from original")
	}
	c.PathFeedback[0].val[0] = 42
	c.SACK[0].PktNum = 99
	c.PathExclude[0].PathID = 77
	if h.PathFeedback[0].val[0] == 42 || h.SACK[0].PktNum == 99 || h.PathExclude[0].PathID == 77 {
		t.Fatal("clone shares memory with original")
	}
}

func TestAddPathFeedbackReplaces(t *testing.T) {
	h := &Header{Type: TypeData}
	p := PathTC{PathID: 1, TC: 0}
	h.AddPathFeedback(ECNFeedback(p, false))
	h.AddPathFeedback(ECNFeedback(p, true))
	if len(h.PathFeedback) != 1 {
		t.Fatalf("len(PathFeedback) = %d, want 1", len(h.PathFeedback))
	}
	if !h.PathFeedback[0].ECNMarked() {
		t.Fatal("feedback not replaced with newest value")
	}
	// A different feedback type on the same pathlet must coexist.
	h.AddPathFeedback(RateFeedback(p, 1e9))
	if len(h.PathFeedback) != 2 {
		t.Fatalf("len(PathFeedback) = %d, want 2", len(h.PathFeedback))
	}
}

func TestExcludes(t *testing.T) {
	h := &Header{Type: TypeData, PathExclude: []PathTC{{PathID: 4, TC: 1}}}
	if !h.Excludes(PathTC{PathID: 4, TC: 1}) {
		t.Fatal("Excludes missed listed pathlet")
	}
	if h.Excludes(PathTC{PathID: 4, TC: 0}) {
		t.Fatal("Excludes matched wrong TC")
	}
}

func TestFeedbackAccessors(t *testing.T) {
	p := PathTC{PathID: 8, TC: 3}
	if f := ECNFeedback(p, true); !f.ECNMarked() {
		t.Fatal("ECNFeedback(true) not marked")
	}
	if f := ECNFeedback(p, false); f.ECNMarked() {
		t.Fatal("ECNFeedback(false) marked")
	}
	if f := RateFeedback(p, 123456789); f.RateBps() != 123456789 {
		t.Fatalf("RateBps = %d", f.RateBps())
	}
	if f := DelayFeedback(p, 555); f.DelayNanos() != 555 {
		t.Fatalf("DelayNanos = %d", f.DelayNanos())
	}
	if f := QueueLenFeedback(p, 20); f.vlen != 4 || binary.BigEndian.Uint32(f.val[:]) != 20 {
		t.Fatalf("QueueLenFeedback value = % x", f.val[:f.vlen])
	}
	if f := TrimFeedback(p, 1460); f.Type != FeedbackTrim {
		t.Fatal("TrimFeedback wrong type")
	}
	// Cross-type accessors must return zero values, not garbage.
	if f := RateFeedback(p, 1); f.ECNMarked() || f.DelayNanos() != 0 {
		t.Fatal("cross-type accessor leaked a value")
	}
}

func TestEpochNewer(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{2, 1, true},
		{1, 2, false},
		{1, 1, false},
		// Serial-number arithmetic: comparisons survive wraparound of the
		// millisecond-derived epoch space.
		{0, 0xffffffff, true},
		{0xffffffff, 0, false},
		{0x80000001, 1, false}, // exactly 2^31 apart: not "newer"
		{1, 0x80000002, true},
	}
	for _, c := range cases {
		if got := EpochNewer(c.a, c.b); got != c.want {
			t.Errorf("EpochNewer(%#x, %#x) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEpochRoundTrip(t *testing.T) {
	h := &Header{Type: TypeData, SrcPort: 1, DstPort: 2, Epoch: 0x01020304, MsgFloor: 7, MsgID: 9}
	b, err := h.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeAll(t, b)
	if got.Epoch != h.Epoch {
		t.Fatalf("Epoch = %#x, want %#x", got.Epoch, h.Epoch)
	}
	if got.MsgFloor != h.MsgFloor {
		t.Fatalf("MsgFloor = %d, want %d", got.MsgFloor, h.MsgFloor)
	}
	if s := h.String(); !strings.Contains(s, "ep=16909060") {
		t.Fatalf("Header.String() = %q missing epoch", s)
	}
	// A zero epoch (the simulator) stays out of the trace line.
	h.Epoch = 0
	if s := h.String(); strings.Contains(s, "ep=") {
		t.Fatalf("Header.String() = %q shows zero epoch", s)
	}
}

func TestStringFormats(t *testing.T) {
	h := sampleHeader()
	s := h.String()
	for _, want := range []string{"DATA", "msg=1234567890123", "pkt=3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Header.String() = %q missing %q", s, want)
		}
	}
	if TypeAck.String() != "ACK" || TypeNack.String() != "NACK" || TypeControl.String() != "CTRL" {
		t.Fatal("PacketType.String mnemonics wrong")
	}
	if PacketType(77).String() != "PacketType(77)" {
		t.Fatal("unknown PacketType format")
	}
	if FeedbackECN.String() != "ECN" || FeedbackRate.String() != "RATE" ||
		FeedbackDelay.String() != "DELAY" || FeedbackTrim.String() != "TRIM" ||
		FeedbackQueueLen.String() != "QLEN" {
		t.Fatal("FeedbackType mnemonics wrong")
	}
	if FeedbackType(99).String() != "FeedbackType(99)" {
		t.Fatal("unknown FeedbackType format")
	}
	if (PathTC{PathID: 3, TC: 1}).String() != "3/1" {
		t.Fatal("PathTC format")
	}
	if (PacketRef{MsgID: 2, PktNum: 5}).String() != "2:5" {
		t.Fatal("PacketRef format")
	}
}

// TestChecksumRejectsCorruption flips every byte of a valid encoding in turn
// (the injected-corruption model: any single corrupted octet) and asserts the
// decoder never silently parses the damaged header. Corruption of header
// bytes must surface as an error — usually ErrBadChecksum, or an earlier
// structural error when the flip lands on the version/type/length fields.
func TestChecksumRejectsCorruption(t *testing.T) {
	good, err := sampleHeader().Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		b := append([]byte(nil), good...)
		b[i] ^= 0xFF
		h, _, err := Decode(b)
		if err == nil {
			t.Fatalf("corrupted byte %d decoded silently: %+v", i, h)
		}
	}
}

// TestChecksumCoversLists corrupts a list entry specifically: a flipped SACK
// reference must not be acted on (it would ack the wrong packet).
func TestChecksumCoversLists(t *testing.T) {
	h := &Header{Type: TypeAck, SACK: []PacketRef{{MsgID: 7, PktNum: 3}}}
	b, err := h.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The encoding ends with the SACK entry (12 bytes) followed by the empty
	// NACK count (2 bytes); flip the low byte of the SACK PktNum.
	b[len(b)-3] ^= 0x01
	if _, _, err := Decode(b); err != ErrBadChecksum {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

// randomHeader builds a structurally valid random header for property tests.
func randomHeader(r *rand.Rand) *Header {
	types := []PacketType{TypeData, TypeAck, TypeNack, TypeControl}
	h := &Header{
		Type:      types[r.Intn(len(types))],
		SrcPort:   uint16(r.Intn(1 << 16)),
		DstPort:   uint16(r.Intn(1 << 16)),
		MsgID:     r.Uint64(),
		MsgPri:    uint8(r.Intn(256)),
		TC:        uint8(r.Intn(8)),
		MsgBytes:  r.Uint32(),
		MsgPkts:   r.Uint32(),
		PktNum:    r.Uint32(),
		PktOffset: r.Uint32(),
		PktLen:    uint16(r.Intn(1 << 16)),
	}
	for i := 0; i < r.Intn(4); i++ {
		h.PathExclude = append(h.PathExclude, PathTC{PathID: r.Uint32(), TC: uint8(r.Intn(8))})
	}
	randFB := func() Feedback {
		p := PathTC{PathID: r.Uint32(), TC: uint8(r.Intn(8))}
		switch r.Intn(5) {
		case 0:
			return ECNFeedback(p, r.Intn(2) == 0)
		case 1:
			return RateFeedback(p, r.Uint64())
		case 2:
			return DelayFeedback(p, r.Uint64())
		case 3:
			return QueueLenFeedback(p, r.Uint32())
		default:
			return TrimFeedback(p, r.Uint32())
		}
	}
	for i := 0; i < r.Intn(5); i++ {
		h.PathFeedback = append(h.PathFeedback, randFB())
	}
	for i := 0; i < r.Intn(5); i++ {
		h.AckPathFeedback = append(h.AckPathFeedback, randFB())
	}
	for i := 0; i < r.Intn(6); i++ {
		h.SACK = append(h.SACK, PacketRef{MsgID: r.Uint64(), PktNum: r.Uint32()})
	}
	for i := 0; i < r.Intn(6); i++ {
		h.NACK = append(h.NACK, PacketRef{MsgID: r.Uint64(), PktNum: r.Uint32()})
	}
	return h
}

// TestQuickRoundTrip is a property test: every valid header survives an
// encode/decode round trip bit-exactly and EncodedLen always matches.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHeader(r)
		b, err := h.Encode(nil)
		if err != nil {
			return false
		}
		if len(b) != h.EncodedLen() {
			return false
		}
		got, n, err := Decode(b)
		if err != nil || n != len(b) {
			return false
		}
		return reflect.DeepEqual(h, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeNoPanic fuzzes Decode with random bytes: it must never
// panic and never allocate unbounded lists.
func TestQuickDecodeNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if rec := recover(); rec != nil {
				t.Fatalf("Decode panicked on %x: %v", b, rec)
			}
		}()
		h, n, err := Decode(b)
		if err == nil && (h == nil || n <= 0 || n > len(b)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeTruncation: any truncation of a valid encoding must fail
// cleanly rather than mis-parse.
func TestQuickDecodeTruncation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHeader(r)
		b, err := h.Encode(nil)
		if err != nil {
			return false
		}
		cut := r.Intn(len(b))
		_, _, err = Decode(b[:cut])
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHeaderEncode(b *testing.B) {
	h := sampleHeader()
	buf := make([]byte, 0, h.EncodedLen())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = h.Encode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeaderDecode(b *testing.B) {
	h := sampleHeader()
	buf, err := h.Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
