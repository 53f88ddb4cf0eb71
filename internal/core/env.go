// Package core implements the MTP endpoint protocol engine — the paper's
// primary contribution. An Endpoint packetizes application messages,
// schedules them by priority under per-(pathlet, traffic class) congestion
// windows, acknowledges with SACK/NACK lists at (message, packet)
// granularity, retransmits on NACK or timeout, reassembles messages
// tolerant of in-network mutation, and evolves pathlet congestion state from
// the feedback lists the network stamps into headers.
//
// The engine is sans-IO and sans-clock: it consumes (now, packet) events and
// emits packets and timer requests through the Env interface. The same code
// runs under virtual time in the simulator (internal/simhost) and under
// wall-clock time over real sockets (the public mtp package).
package core

import (
	"time"

	"mtp/internal/wire"
)

// Addr is an opaque peer address. Implementations of Env define what it
// means (a simulated node ID, a UDP address string, ...). Values must be
// comparable: the endpoint uses them as map keys.
type Addr any

// Outbound is a packet the endpoint hands to the network.
type Outbound struct {
	// Dst is the peer the packet is addressed to.
	Dst Addr
	// Hdr is the MTP header: the endpoint's scratch, valid until Output
	// returns (see Env.Output).
	Hdr *wire.Header
	// Data is the payload; nil for synthetic payloads and control packets.
	Data []byte
	// Size is the on-wire size in bytes (header + payload).
	Size int
}

// Inbound is a packet arriving from the network. Endpoint.OnPacket copies
// what it needs (payload bytes, feedback entries) before returning, so
// callers may reuse the Inbound, the Header, and the Data buffer for the
// next packet.
type Inbound struct {
	// From is the peer address the packet came from (where replies go).
	From Addr
	// Hdr is the (possibly network-mutated) MTP header.
	Hdr *wire.Header
	// Data is the payload if application bytes are carried.
	Data []byte
	// Trimmed reports the payload was removed by a switch.
	Trimmed bool
}

// Env is the world the endpoint runs in.
type Env interface {
	// Now returns the current time (virtual or wall-clock).
	Now() time.Duration
	// Output transmits a packet. It must not call back into the endpoint
	// synchronously, and it must not retain pkt, pkt.Hdr or any of Hdr's
	// lists past the call: all three are the endpoint's scratch, rewritten
	// for the next transmission. An Env that queues the packet encodes or
	// copies the header (Header.CopyFrom, Header.Clone) before returning.
	// Data may be retained: the endpoint hands it to the network.
	Output(pkt *Outbound)
	// SetTimer requests a call to Endpoint.OnTimer at or after t. Each call
	// replaces the previous request; zero cancels.
	SetTimer(t time.Duration)
}
