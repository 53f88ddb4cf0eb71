// Package wire implements the MTP packet header wire format (Figure 4 of the
// HotNets'21 paper). A header carries port addressing, per-message metadata
// (ID, priority, length in bytes and packets), per-packet position fields,
// and the pathlet congestion-control lists: path exclusions, path feedback
// stamped by network devices, acknowledged path feedback echoed by receivers,
// and SACK/NACK lists at (message, packet) granularity.
//
// All multi-byte integers are big endian. Variable-length lists are
// count-prefixed. The encoding is self-describing enough for a switch or NIC
// to parse message attributes from any single packet with bounded state.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PacketType distinguishes the roles an MTP packet can play.
type PacketType uint8

const (
	// TypeData carries message payload bytes.
	TypeData PacketType = iota + 1
	// TypeAck acknowledges received packets and echoes path feedback.
	TypeAck
	// TypeNack negatively acknowledges packets (e.g. after trimming).
	TypeNack
	// TypeControl carries endpoint control information (e.g. path
	// announcements) without payload.
	TypeControl
)

// String returns the packet type mnemonic.
func (t PacketType) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeAck:
		return "ACK"
	case TypeNack:
		return "NACK"
	case TypeControl:
		return "CTRL"
	default:
		return fmt.Sprintf("PacketType(%d)", uint8(t))
	}
}

// FeedbackType identifies the kind of congestion feedback in a TLV entry.
// Different pathlets may use different feedback types simultaneously; this is
// what lets DCTCP-style and RCP-style control coexist (multi-algorithm CC).
type FeedbackType uint8

const (
	// FeedbackECN is a one-byte 0/1 congestion-experienced mark.
	FeedbackECN FeedbackType = iota + 1
	// FeedbackRate is an 8-byte explicit rate in bits per second (RCP).
	FeedbackRate
	// FeedbackDelay is an 8-byte one-way queueing delay in nanoseconds
	// (Swift-style).
	FeedbackDelay
	// FeedbackTrim marks a packet whose payload was trimmed by a switch
	// (NDP-style); the value is the original payload length (4 bytes).
	FeedbackTrim
	// FeedbackQueueLen is a 4-byte instantaneous queue length in packets.
	// No device here stamps it and no sender reads it; it is decoded like
	// any other entry and echoed back unread.
	FeedbackQueueLen
)

// String returns the feedback type mnemonic.
func (t FeedbackType) String() string {
	switch t {
	case FeedbackECN:
		return "ECN"
	case FeedbackRate:
		return "RATE"
	case FeedbackDelay:
		return "DELAY"
	case FeedbackTrim:
		return "TRIM"
	case FeedbackQueueLen:
		return "QLEN"
	default:
		return fmt.Sprintf("FeedbackType(%d)", uint8(t))
	}
}

// PathTC identifies a (pathlet, traffic class) pair. Congestion state at
// end-hosts is keyed by this pair, which is what provides per-entity
// isolation at coarser-than-flow granularity.
type PathTC struct {
	PathID uint32
	TC     uint8
}

// String formats the pair as "path/tc".
func (p PathTC) String() string { return fmt.Sprintf("%d/%d", p.PathID, p.TC) }

// Feedback is one (pathlet, TC, feedback) tuple. Network devices append these
// to DATA packets; receivers copy them into the AckPathFeedback list of the
// ACK they generate. The value bytes live inline (every defined feedback type
// fits in 8 bytes), so constructing, copying, and decoding entries never
// touches the heap and copies are always deep.
type Feedback struct {
	Path PathTC
	Type FeedbackType
	vlen uint8
	val  [8]byte
}

// ECNFeedback constructs an ECN mark feedback entry.
func ECNFeedback(p PathTC, marked bool) Feedback {
	f := Feedback{Path: p, Type: FeedbackECN, vlen: 1}
	if marked {
		f.val[0] = 1
	}
	return f
}

// RateFeedback constructs an explicit-rate feedback entry (bits/second).
func RateFeedback(p PathTC, bps uint64) Feedback {
	f := Feedback{Path: p, Type: FeedbackRate, vlen: 8}
	binary.BigEndian.PutUint64(f.val[:], bps)
	return f
}

// DelayFeedback constructs a queueing-delay feedback entry (nanoseconds).
func DelayFeedback(p PathTC, nanos uint64) Feedback {
	f := Feedback{Path: p, Type: FeedbackDelay, vlen: 8}
	binary.BigEndian.PutUint64(f.val[:], nanos)
	return f
}

// TrimFeedback constructs a trim notification carrying the original payload
// length that was removed.
func TrimFeedback(p PathTC, origLen uint32) Feedback {
	f := Feedback{Path: p, Type: FeedbackTrim, vlen: 4}
	binary.BigEndian.PutUint32(f.val[:], origLen)
	return f
}

// ECNMarked reports whether an ECN feedback entry carries a mark. It returns
// false for non-ECN entries or malformed values.
func (f Feedback) ECNMarked() bool {
	return f.Type == FeedbackECN && f.vlen == 1 && f.val[0] == 1
}

// RateBps returns the explicit rate of a RATE entry, or 0 if not applicable.
func (f Feedback) RateBps() uint64 {
	if f.Type != FeedbackRate || f.vlen != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(f.val[:])
}

// DelayNanos returns the delay of a DELAY entry, or 0 if not applicable.
func (f Feedback) DelayNanos() uint64 {
	if f.Type != FeedbackDelay || f.vlen != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(f.val[:])
}

// Header flag bits (the Flags field). They carry the offload fault-tolerance
// protocol: in-network devices that acknowledge on behalf of a destination
// mark the ACK delegated, and senders recovering from a dead device mark
// retransmissions so surviving devices pass them through untouched.
const (
	// FlagDelegatedAck marks an ACK generated by an in-network device
	// (cache, aggregator) rather than the packet's true destination. A
	// sender with delegation enabled treats such ACKs as provisional: the
	// window opens, but the message stays resendable until end-to-end
	// confirmation (the aggregated result, a cache response, or an explicit
	// release).
	FlagDelegatedAck uint8 = 1 << 0
	// FlagBypassOffload marks a DATA packet that in-network compute devices
	// must forward unmodified: no aggregation, no cache answer, no
	// consumption. Senders set it on retransmissions after a delegated ACK
	// went unconfirmed, so the raw payload reaches the true destination even
	// if the device that first absorbed it has lost its state.
	FlagBypassOffload uint8 = 1 << 1
)

// PacketRef names one packet of one message, used in SACK and NACK lists.
type PacketRef struct {
	MsgID  uint64
	PktNum uint32
}

// String formats the reference as "msg:pkt".
func (r PacketRef) String() string { return fmt.Sprintf("%d:%d", r.MsgID, r.PktNum) }

// Header is the parsed MTP packet header. The field order mirrors Figure 4.
type Header struct {
	Type    PacketType
	SrcPort uint16
	DstPort uint16

	// Epoch is the sender's incarnation number, seeded once per process
	// boot. Receivers track the last-seen epoch per peer: a packet carrying
	// an older epoch is a straggler from a previous incarnation and is
	// dropped; a newer epoch proves the peer restarted, so all per-peer
	// protocol state (duplicate suppression, reassembly, congestion
	// estimates) is reset before the packet is processed. Zero means the
	// sender does not participate in epoch tracking (the simulator, where
	// endpoints never restart).
	Epoch uint32

	// MsgFloor is the sender's fully-acknowledged message floor: every one
	// of this sender's messages with an ID below it has been delivered and
	// acknowledged end to end. Receivers keep exact per-peer duplicate
	// suppression for IDs at or above the floor and may discard all state
	// below it, so dedup memory is bounded by the sender's in-flight window
	// rather than by a global cache that cross-traffic can thrash. Zero
	// means the sender does not advertise a floor (legacy or in-network
	// devices); receivers then fall back to capped best-effort dedup.
	MsgFloor uint64

	// Message-level information, present in every packet of the message so
	// that any device can parse the message from any packet.
	MsgID    uint64
	MsgPri   uint8  // relative priority among parallel messages
	TC       uint8  // traffic class assigned to the message's entity
	Flags    uint8  // Flag* bits (delegated ACK, offload bypass)
	MsgBytes uint32 // total message length in bytes
	MsgPkts  uint32 // total message length in packets

	// Per-packet position information used for retransmission.
	PktNum    uint32 // 0-based packet number within the message
	PktOffset uint32 // byte offset of this packet's payload in the message
	PktLen    uint16 // payload length of this packet in bytes

	// Pathlet congestion control lists.
	PathExclude     []PathTC   // pathlets the source asks the network to avoid
	PathFeedback    []Feedback // stamped by network devices on the forward path
	AckPathFeedback []Feedback // echoed by the receiver on the reverse path

	// Selective acknowledgement lists.
	SACK []PacketRef
	NACK []PacketRef
}

// Wire format constants.
const (
	// Version is the wire format version byte leading every packet.
	// Version 2 added the 4-byte incarnation epoch and the 8-byte
	// acknowledged-message floor to the fixed header.
	Version = 2

	// fixedLen is the byte length of the fixed portion of the header:
	// version(1) type(1) checksum(4) srcPort(2) dstPort(2) epoch(4)
	// msgFloor(8) msgID(8) msgPri(1) tc(1) flags(1) msgBytes(4) msgPkts(4)
	// pktNum(4) pktOffset(4) pktLen(2) + 5 list-count fields (2 bytes each).
	fixedLen = 1 + 1 + 4 + 2 + 2 + 4 + 8 + 8 + 1 + 1 + 1 + 4 + 4 + 4 + 4 + 2 + 2*5

	// checksumOff is the byte offset of the header checksum within an
	// encoded header (right after version and type).
	checksumOff = 2

	// pathTCLen is the encoded size of one PathTC entry.
	pathTCLen = 4 + 1
	// feedbackFixedLen is the encoded size of one Feedback entry minus its
	// variable value: pathID(4) tc(1) type(1) valueLen(1).
	feedbackFixedLen = 4 + 1 + 1 + 1
	// packetRefLen is the encoded size of one SACK/NACK entry.
	packetRefLen = 8 + 4

	// MaxListEntries bounds each variable-length list so that a malformed
	// or adversarial header cannot force unbounded allocation.
	MaxListEntries = 1024
	// MaxFeedbackValue bounds the value length of one feedback TLV. Every
	// defined feedback type fits in 8 bytes, which lets entries store their
	// value inline with no per-entry allocation.
	MaxFeedbackValue = 8
)

// Errors returned by DecodeInto.
var (
	ErrShortBuffer  = errors.New("wire: buffer too short")
	ErrBadVersion   = errors.New("wire: unsupported version")
	ErrBadType      = errors.New("wire: invalid packet type")
	ErrListTooLong  = errors.New("wire: list exceeds MaxListEntries")
	ErrValueTooLong = errors.New("wire: feedback value exceeds MaxFeedbackValue")
	ErrBadChecksum  = errors.New("wire: header checksum mismatch")
)

// crcTable is the Castagnoli polynomial table used for the header checksum
// (same polynomial as iSCSI/SCTP; hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// zeroCksum is the all-zero stand-in for the checksum field while summing.
var zeroCksum [4]byte

// headerChecksum computes the CRC32-C of an encoded header with the checksum
// field treated as zero, without mutating the buffer.
func headerChecksum(b []byte) uint32 {
	sum := crc32.Update(0, crcTable, b[:checksumOff])
	sum = crc32.Update(sum, crcTable, zeroCksum[:])
	return crc32.Update(sum, crcTable, b[checksumOff+4:])
}

// EncodedLen returns the number of bytes Encode will produce for h.
func (h *Header) EncodedLen() int {
	n := fixedLen
	n += len(h.PathExclude) * pathTCLen
	for i := range h.PathFeedback {
		n += feedbackFixedLen + int(h.PathFeedback[i].vlen)
	}
	for i := range h.AckPathFeedback {
		n += feedbackFixedLen + int(h.AckPathFeedback[i].vlen)
	}
	n += (len(h.SACK) + len(h.NACK)) * packetRefLen
	return n
}

// Validate checks structural invariants that must hold before encoding.
func (h *Header) Validate() error {
	switch h.Type {
	case TypeData, TypeAck, TypeNack, TypeControl:
	default:
		return ErrBadType
	}
	if len(h.PathExclude) > MaxListEntries || len(h.PathFeedback) > MaxListEntries ||
		len(h.AckPathFeedback) > MaxListEntries || len(h.SACK) > MaxListEntries ||
		len(h.NACK) > MaxListEntries {
		return ErrListTooLong
	}
	// Feedback values are stored inline and bounded by construction, so no
	// per-entry length check is needed.
	return nil
}

// Encode appends the wire representation of h to dst and returns the extended
// slice. It returns an error if h fails Validate.
func (h *Header) Encode(dst []byte) ([]byte, error) {
	if err := h.Validate(); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, Version, byte(h.Type))
	dst = append(dst, 0, 0, 0, 0) // checksum placeholder, filled below
	dst = binary.BigEndian.AppendUint16(dst, h.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, h.DstPort)
	dst = binary.BigEndian.AppendUint32(dst, h.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, h.MsgFloor)
	dst = binary.BigEndian.AppendUint64(dst, h.MsgID)
	dst = append(dst, h.MsgPri, h.TC, h.Flags)
	dst = binary.BigEndian.AppendUint32(dst, h.MsgBytes)
	dst = binary.BigEndian.AppendUint32(dst, h.MsgPkts)
	dst = binary.BigEndian.AppendUint32(dst, h.PktNum)
	dst = binary.BigEndian.AppendUint32(dst, h.PktOffset)
	dst = binary.BigEndian.AppendUint16(dst, h.PktLen)

	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.PathExclude)))
	for _, p := range h.PathExclude {
		dst = binary.BigEndian.AppendUint32(dst, p.PathID)
		dst = append(dst, p.TC)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.PathFeedback)))
	for i := range h.PathFeedback {
		dst = appendFeedback(dst, &h.PathFeedback[i])
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.AckPathFeedback)))
	for i := range h.AckPathFeedback {
		dst = appendFeedback(dst, &h.AckPathFeedback[i])
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.SACK)))
	for _, r := range h.SACK {
		dst = binary.BigEndian.AppendUint64(dst, r.MsgID)
		dst = binary.BigEndian.AppendUint32(dst, r.PktNum)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.NACK)))
	for _, r := range h.NACK {
		dst = binary.BigEndian.AppendUint64(dst, r.MsgID)
		dst = binary.BigEndian.AppendUint32(dst, r.PktNum)
	}
	binary.BigEndian.PutUint32(dst[start+checksumOff:], headerChecksum(dst[start:]))
	return dst, nil
}

func appendFeedback(dst []byte, f *Feedback) []byte {
	dst = binary.BigEndian.AppendUint32(dst, f.Path.PathID)
	dst = append(dst, f.Path.TC, byte(f.Type), f.vlen)
	return append(dst, f.val[:f.vlen]...)
}

// decoder is a cursor over an encoded header.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) need(n int) error {
	if len(d.b)-d.off < n {
		return ErrShortBuffer
	}
	return nil
}

func (d *decoder) u8() uint8   { v := d.b[d.off]; d.off++; return v }
func (d *decoder) u16() uint16 { v := binary.BigEndian.Uint16(d.b[d.off:]); d.off += 2; return v }
func (d *decoder) u32() uint32 { v := binary.BigEndian.Uint32(d.b[d.off:]); d.off += 4; return v }
func (d *decoder) u64() uint64 { v := binary.BigEndian.Uint64(d.b[d.off:]); d.off += 8; return v }

// DecodeInto parses an encoded header from b into h, reusing the capacity of
// h's list slices so a header decoded repeatedly into the same struct
// allocates only when a list outgrows every previous packet. Every field of h
// is overwritten. It returns the number of bytes consumed; the remainder of b
// is the packet payload. Decoded slices never alias b.
func DecodeInto(h *Header, b []byte) (int, error) {
	var d decoder
	d.b = b
	if err := d.need(fixedLen); err != nil {
		return 0, err
	}
	if v := d.u8(); v != Version {
		return 0, fmt.Errorf("%w: got %d want %d", ErrBadVersion, v, Version)
	}
	h.Type = PacketType(d.u8())
	switch h.Type {
	case TypeData, TypeAck, TypeNack, TypeControl:
	default:
		return 0, ErrBadType
	}
	wantSum := d.u32()
	h.SrcPort = d.u16()
	h.DstPort = d.u16()
	h.Epoch = d.u32()
	h.MsgFloor = d.u64()
	h.MsgID = d.u64()
	h.MsgPri = d.u8()
	h.TC = d.u8()
	h.Flags = d.u8()
	h.MsgBytes = d.u32()
	h.MsgPkts = d.u32()
	h.PktNum = d.u32()
	h.PktOffset = d.u32()
	h.PktLen = d.u16()

	nExclude := int(d.u16())
	if nExclude > MaxListEntries {
		return 0, ErrListTooLong
	}
	if err := d.need(nExclude * pathTCLen); err != nil {
		return 0, err
	}
	h.PathExclude = h.PathExclude[:0]
	for i := 0; i < nExclude; i++ {
		h.PathExclude = append(h.PathExclude, PathTC{PathID: d.u32(), TC: d.u8()})
	}

	var err error
	if h.PathFeedback, err = d.feedbackList(h.PathFeedback[:0]); err != nil {
		return 0, err
	}
	if h.AckPathFeedback, err = d.feedbackList(h.AckPathFeedback[:0]); err != nil {
		return 0, err
	}
	if h.SACK, err = d.refList(h.SACK[:0]); err != nil {
		return 0, err
	}
	if h.NACK, err = d.refList(h.NACK[:0]); err != nil {
		return 0, err
	}
	// The checksum covers every header byte (checksum field as zero), so
	// in-network corruption of any field — including the lists a switch
	// would act on — is detected and the packet dropped rather than parsed.
	if headerChecksum(b[:d.off]) != wantSum {
		return 0, ErrBadChecksum
	}
	return d.off, nil
}

func (d *decoder) feedbackList(out []Feedback) ([]Feedback, error) {
	if err := d.need(2); err != nil {
		return nil, err
	}
	n := int(d.u16())
	if n > MaxListEntries {
		return nil, ErrListTooLong
	}
	for i := 0; i < n; i++ {
		if err := d.need(feedbackFixedLen); err != nil {
			return nil, err
		}
		var f Feedback
		f.Path.PathID = d.u32()
		f.Path.TC = d.u8()
		f.Type = FeedbackType(d.u8())
		vl := int(d.u8())
		if vl > MaxFeedbackValue {
			return nil, ErrValueTooLong
		}
		if err := d.need(vl); err != nil {
			return nil, err
		}
		copy(f.val[:], d.b[d.off:d.off+vl])
		f.vlen = uint8(vl)
		d.off += vl
		out = append(out, f)
	}
	return out, nil
}

func (d *decoder) refList(out []PacketRef) ([]PacketRef, error) {
	if err := d.need(2); err != nil {
		return nil, err
	}
	n := int(d.u16())
	if n > MaxListEntries {
		return nil, ErrListTooLong
	}
	if err := d.need(n * packetRefLen); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		out = append(out, PacketRef{MsgID: d.u64(), PktNum: d.u32()})
	}
	return out, nil
}

// Clone returns a deep copy of h. Network devices that mutate headers (e.g.
// appending feedback) operate on clones so that simulated multicast or
// retransmission state is not corrupted by aliasing.
func (h *Header) Clone() *Header {
	c := new(Header)
	c.CopyFrom(h)
	return c
}

// CopyFrom makes h a deep copy of src, reusing the capacity of h's list
// slices the way DecodeInto does: a header copied repeatedly into the same
// struct allocates only when a list outgrows every previous one. Every field
// of h is overwritten, and h's lists never alias src's.
func (h *Header) CopyFrom(src *Header) {
	exclude, fwd, echo, sack, nack := h.PathExclude, h.PathFeedback, h.AckPathFeedback, h.SACK, h.NACK
	*h = *src
	h.PathExclude = append(exclude[:0], src.PathExclude...)
	// Feedback stores its value inline, so a slice copy is already deep.
	h.PathFeedback = append(fwd[:0], src.PathFeedback...)
	h.AckPathFeedback = append(echo[:0], src.AckPathFeedback...)
	h.SACK = append(sack[:0], src.SACK...)
	h.NACK = append(nack[:0], src.NACK...)
}

// AddPathFeedback appends a feedback entry to the forward path feedback list,
// replacing an existing entry for the same (pathlet, TC, type) if present so
// a packet crossing the same device twice carries only the freshest value.
func (h *Header) AddPathFeedback(f Feedback) {
	for i, old := range h.PathFeedback {
		if old.Path == f.Path && old.Type == f.Type {
			h.PathFeedback[i] = f
			return
		}
	}
	h.PathFeedback = append(h.PathFeedback, f)
}

// Excludes reports whether the source asked the network to avoid pathlet p.
func (h *Header) Excludes(p PathTC) bool {
	for _, e := range h.PathExclude {
		if e == p {
			return true
		}
	}
	return false
}

// String renders a compact single-line summary useful in traces.
func (h *Header) String() string {
	flags := ""
	if h.Flags&FlagDelegatedAck != 0 {
		flags += "D"
	}
	if h.Flags&FlagBypassOffload != 0 {
		flags += "B"
	}
	if flags != "" {
		flags = " flags=" + flags
	}
	epoch := ""
	if h.Epoch != 0 {
		epoch = fmt.Sprintf(" ep=%d", h.Epoch)
	}
	if h.MsgFloor != 0 {
		epoch += fmt.Sprintf(" fl=%d", h.MsgFloor)
	}
	return fmt.Sprintf("%s %d->%d%s msg=%d pri=%d tc=%d%s len=%dB/%dp pkt=%d off=%d plen=%d fb=%d ackfb=%d sack=%d nack=%d",
		h.Type, h.SrcPort, h.DstPort, epoch, h.MsgID, h.MsgPri, h.TC, flags, h.MsgBytes, h.MsgPkts,
		h.PktNum, h.PktOffset, h.PktLen, len(h.PathFeedback), len(h.AckPathFeedback), len(h.SACK), len(h.NACK))
}

// EpochNewer reports whether incarnation epoch a is strictly newer than b,
// using serial-number arithmetic (RFC 1982 style): the comparison is taken
// modulo 2^32, so epochs derived from a wrapping millisecond clock still
// order correctly as long as two compared incarnations are less than 2^31
// apart. Zero epochs never participate (callers gate on Epoch != 0).
func EpochNewer(a, b uint32) bool { return int32(a-b) > 0 }
