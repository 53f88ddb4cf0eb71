// Package simnet provides the simulated network elements — links with
// output queues, hosts, switches with pluggable forwarding policies, and a
// tenant fair-share policer — that run on the discrete-event engine in
// internal/sim. Together with internal/sim it is this repository's substitute
// for the ns-3 simulator used by the paper.
package simnet

import (
	"time"

	"mtp/internal/wire"
)

// NodeID addresses a node in a Network.
type NodeID int

// Packet is the unit of transmission in the simulated network. A packet
// always has a size in bytes (used for serialization delay and queueing);
// MTP packets additionally carry a parsed header, which in-network devices
// read and mutate, while baseline transports stash their own state in
// Payload.
type Packet struct {
	Src, Dst NodeID
	// Size is the on-wire size in bytes including all headers.
	Size int

	// Hdr is the MTP header for MTP packets; nil otherwise. Devices read and
	// mutate it in place. After SetHeader it points at storage the packet
	// owns, which is recycled with the packet: nothing may keep Hdr or one of
	// its lists past the packet's release without copying (Header.Clone).
	Hdr *wire.Header

	// Payload carries transport-specific state for non-MTP packets (e.g.
	// a TCP segment model). A payload that implements OwnedPayload belongs to
	// the packet the way its owned header does: it is recycled with the
	// packet, so nothing may keep it past the packet's release without
	// copying it. Other payloads are left to the garbage collector.
	Payload any

	// Data optionally carries application bytes for offload experiments
	// (caches, mutators). Most throughput experiments leave it nil and
	// model payload by Size alone.
	Data []byte

	// CE is the IP-level congestion-experienced mark (RFC 3168) used by
	// the DCTCP baseline.
	CE bool
	// ECNCapable gates CE marking; non-capable packets are dropped instead
	// when the mark threshold also exceeds the queue.
	ECNCapable bool

	// Trimmed reports that a switch removed the payload (NDP-style).
	Trimmed bool

	// Corrupted reports that a faulty link flipped bits in the packet. The
	// wire-format checksum detects this, so receivers drop corrupted packets
	// instead of parsing them (see internal/wire); the flag models the
	// damage without materializing byte flips.
	Corrupted bool

	// Tenant identifies the originating entity for per-entity policies.
	Tenant int

	// FlowID groups packets for ECMP hashing and flow counting.
	FlowID uint64

	// enqueuedAt and queueLenAtEnqueue record queueing metadata between
	// enqueue and dequeue on one link.
	enqueuedAt        time.Duration
	queueLenAtEnqueue int

	// own is the header storage SetHeader fills, allocated the first time
	// the packet carries an MTP header and kept across ReleasePacket with its
	// list capacities: a recycled packet carries — and switches stamp
	// feedback into — a header without allocating. A pointer rather than a
	// value so packets that never carry an MTP header (every baseline
	// transport's) stay small.
	own *wire.Header

	// pooled marks packets owned by a Network free-list (see
	// Network.AllocPacket); released guards against double release.
	// Packets built with &Packet{} are never recycled.
	pooled   bool
	released bool
}

// OwnedPayload is a Payload whose storage the carrying packet owns, as it owns
// its header: the TCP model's segment is one. It lives exactly as long as that
// packet. ReleasePacket recycles it with the packet, whether the packet was
// delivered, dropped or faulted, and the duplicate fault gives the duplicate a
// Copy of its own.
type OwnedPayload interface {
	// Copy returns a copy for another packet to own.
	Copy() OwnedPayload
	// Recycle ends the payload's life so the next packet may reuse it. With
	// poison set it is overwritten with sentinels and withheld from reuse
	// instead (see SetPoisonFreed).
	Recycle(poison bool)
}

// SetHeader makes p an MTP packet carrying a deep copy of h in storage the
// packet owns, so the caller may reuse h (and its lists) as soon as the call
// returns.
func (p *Packet) SetHeader(h *wire.Header) {
	if p.own == nil {
		p.own = new(wire.Header)
	}
	p.own.CopyFrom(h)
	p.Hdr = p.own
}
