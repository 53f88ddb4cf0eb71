// Package offload implements the in-network computing devices that motivate
// MTP (the paper's Figure 1): an application-aware cache that answers
// requests from inside the network (NetCache-style), an L7 load balancer
// that steers whole messages to replicas, a data mutator (compression-style
// offload that changes message lengths in flight), and an ATP-style
// aggregator that folds many worker messages into one.
//
// All devices are switch interposers: they see every packet crossing a
// switch, may consume it, rewrite it, or generate new packets. They rely on
// exactly the properties MTP's header provides — complete message metadata
// in every packet, message-granularity independence, and length fields a
// device may rewrite — and are therefore impossible to build this simply on
// a TCP byte stream (Table 1).
package offload

import (
	"encoding/binary"

	"mtp/internal/simnet"
	"mtp/internal/wire"
)

// kvOp codes for the tiny KVS protocol used by the cache and examples.
const (
	kvGet = byte(1)
	kvPut = byte(2)
	kvRsp = byte(3)
)

// EncodeGet builds a GET request payload.
func EncodeGet(key string) []byte {
	b := make([]byte, 3+len(key))
	b[0] = kvGet
	binary.BigEndian.PutUint16(b[1:], uint16(len(key)))
	copy(b[3:], key)
	return b
}

// EncodePut builds a PUT request payload.
func EncodePut(key string, value []byte) []byte {
	b := make([]byte, 3+len(key)+len(value))
	b[0] = kvPut
	binary.BigEndian.PutUint16(b[1:], uint16(len(key)))
	copy(b[3:], key)
	copy(b[3+len(key):], value)
	return b
}

// EncodeResponse builds a response payload.
func EncodeResponse(key string, value []byte) []byte {
	b := make([]byte, 3+len(key)+len(value))
	b[0] = kvRsp
	binary.BigEndian.PutUint16(b[1:], uint16(len(key)))
	copy(b[3:], key)
	copy(b[3+len(key):], value)
	return b
}

// DecodeKV parses any KVS payload into (op, key, value); ok is false for
// non-KVS payloads.
func DecodeKV(b []byte) (op byte, key string, value []byte, ok bool) {
	if len(b) < 3 {
		return 0, "", nil, false
	}
	op = b[0]
	if op != kvGet && op != kvPut && op != kvRsp {
		return 0, "", nil, false
	}
	kl := int(binary.BigEndian.Uint16(b[1:]))
	if len(b) < 3+kl {
		return 0, "", nil, false
	}
	return op, string(b[3 : 3+kl]), b[3+kl:], true
}

// IsResponse reports whether a KVS payload is a response.
func IsResponse(b []byte) bool {
	op, _, _, ok := DecodeKV(b)
	return ok && op == kvRsp
}

// resultTag marks a parameter server's round-result broadcast payload.
const resultTag = byte(0x52)

// EncodeResult builds a round-result broadcast payload: tag, round, summed
// vector. Its length (9+8d) can never parse as a raw gradient (8+8d) and its
// tag differs from the aggregate format, so the three payload kinds are
// structurally disjoint.
func EncodeResult(round uint64, sum []int64) []byte {
	b := make([]byte, 9+8*len(sum))
	b[0] = resultTag
	binary.BigEndian.PutUint64(b[1:], round)
	for i, v := range sum {
		binary.BigEndian.PutUint64(b[9+8*i:], uint64(v))
	}
	return b
}

// DecodeResult parses an EncodeResult payload.
func DecodeResult(b []byte) (round uint64, sum []int64, ok bool) {
	if len(b) < 9 || b[0] != resultTag || (len(b)-9)%8 != 0 {
		return 0, nil, false
	}
	round = binary.BigEndian.Uint64(b[1:])
	sum = make([]int64, (len(b)-9)/8)
	for i := range sum {
		sum[i] = int64(binary.BigEndian.Uint64(b[9+8*i:]))
	}
	return round, sum, true
}

// SpoofMsgIDBase keeps device-generated message IDs out of any end-host's
// ID space (end hosts allocate sequentially from 1). The invariant harness
// uses it to recognize device-originated messages.
const SpoofMsgIDBase = uint64(1) << 40

// ackPacket builds an ACK for one data packet, sent as if from the original
// destination (address transparency, as in-network caches do). Every spoofed
// ACK carries FlagDelegatedAck: the device — not the destination — is vouching
// for delivery, and a sender running with delegated-ACK semantics enabled
// keeps the message resendable until end-to-end confirmation. Senders with
// the feature disabled ignore the flag, so devices set it unconditionally.
func ackPacket(data *simnet.Packet) *simnet.Packet {
	hdr := &wire.Header{
		Type:    wire.TypeAck,
		SrcPort: data.Hdr.DstPort,
		DstPort: data.Hdr.SrcPort,
		Flags:   wire.FlagDelegatedAck,
		SACK:    []wire.PacketRef{{MsgID: data.Hdr.MsgID, PktNum: data.Hdr.PktNum}},
		// Echo forward feedback so the sender's pathlet state stays fresh
		// even when the request never reaches the far end. Copied: the list
		// belongs to the data packet, which callers release at once.
		AckPathFeedback: append([]wire.Feedback(nil), data.Hdr.PathFeedback...),
	}
	return &simnet.Packet{
		Src:        data.Dst, // spoof the original destination
		Dst:        data.Src,
		Size:       hdr.EncodedLen() + 40,
		Hdr:        hdr,
		ECNCapable: true,
		Tenant:     data.Tenant,
		FlowID:     data.FlowID,
	}
}

// bypassed reports whether a packet asks in-network compute to stand aside:
// the sender suspects a device failed mid-message and is retransmitting along
// the end-to-end path. Devices that consume or mutate payloads must forward
// such packets untouched; passive devices (IDS) keep inspecting them.
func bypassed(pkt *simnet.Packet) bool {
	return pkt.Hdr != nil && pkt.Hdr.Flags&wire.FlagBypassOffload != 0
}

// dataPacket builds a single-packet response message from a device.
func dataPacket(src, dst simnet.NodeID, srcPort, dstPort uint16, msgID uint64, tc uint8, payload []byte) *simnet.Packet {
	hdr := &wire.Header{
		Type:     wire.TypeData,
		SrcPort:  srcPort,
		DstPort:  dstPort,
		MsgID:    msgID,
		TC:       tc,
		MsgBytes: uint32(len(payload)),
		MsgPkts:  1,
		PktNum:   0,
		PktLen:   uint16(len(payload)),
	}
	return &simnet.Packet{
		Src:        src,
		Dst:        dst,
		Size:       hdr.EncodedLen() + 40 + len(payload),
		Hdr:        hdr,
		Data:       payload,
		ECNCapable: true,
	}
}
