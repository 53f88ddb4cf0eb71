package core

import (
	"fmt"
	"time"

	"mtp/internal/pathlet"
	"mtp/internal/wire"
)

// Observer is the endpoint's one protocol event tap. Every significant action
// (a message queued, a packet sent, acknowledged or retransmitted, a message
// delivered, a pathlet updated, excluded, failed, probed or readmitted, a peer
// restart) is one Event handed to Observe as it happens. The invariant
// checker (internal/check) audits the stream; package mtp keeps the last N
// events in a ring behind Node.TraceDump. With no Observer configured an
// emit site is one nil check and builds nothing.
type Observer interface {
	// Observe receives one event. ev and the pointer it carries are valid
	// only during the call; Observe must not retain them nor call back into
	// e's send or receive paths.
	Observe(e *Endpoint, ev *Event)
}

// Kind classifies an event.
type Kind uint8

// Event kinds, each with the fields it sets beyond At and Kind. KindFeedback
// through KindReadmit name a pathlet in Path and carry its ID in A and its
// class in B.
const (
	KindQueued         Kind = iota + 1 // the application submitted Out: Msg, A = size
	KindSendData                       // packet Pkt of Msg left on Path: A = bytes, B = path ID
	KindRetransmit                     // as KindSendData, for a resend
	KindRecvData                       // packet Pkt of Msg arrived: A = bytes
	KindDupData                        // as KindRecvData, for a packet already held
	KindSendAck                        // an ACK left: A = SACK entries, B = NACK entries
	KindRecvAck                        // an ACK arrived: A, B as KindSendAck
	KindNackOut                        // packet Pkt of Msg was NACKed
	KindNackIn                         // a NACK queued packet Pkt of Msg for resending
	KindDeliver                        // In completed, just before OnMessage: Msg, A = bytes
	KindComplete                       // every packet of Msg was acknowledged: A = size
	KindTimeout                        // packet Pkt of Msg timed out: A = 1 for an unconfirmed delegated ACK
	KindPathletUpdated                 // an ACK updated State after its algorithm ran: Path, A = window, B = inflight
	KindFeedback                       // feedback from Path arrived (failover's proof of life), before any readmission
	KindExclude                        // the auto-exclude policy asked the network to avoid Path
	KindUnexclude                      // that exclusion of Path expired
	KindFailover                       // failover declared Path dead
	KindProbe                          // an outgoing packet omits dead Path from its exclude list
	KindReadmit                        // dead Path was readmitted
	KindEpochBump                      // a peer restarted: A = new incarnation epoch, B = previous
)

// kindNames holds each kind's mnemonic, at most five characters wide.
var kindNames = [...]string{
	KindQueued:         "QUEUE",
	KindSendData:       "SEND",
	KindRetransmit:     "RETX",
	KindRecvData:       "RECV",
	KindDupData:        "DUP",
	KindSendAck:        "ACK>",
	KindRecvAck:        "ACK<",
	KindNackOut:        "NACK>",
	KindNackIn:         "NACK<",
	KindDeliver:        "DLVR",
	KindComplete:       "DONE",
	KindTimeout:        "RTO",
	KindPathletUpdated: "PATH",
	KindFeedback:       "FDBK",
	KindExclude:        "EXCL",
	KindUnexclude:      "UNEXC",
	KindFailover:       "FAIL",
	KindProbe:          "PROBE",
	KindReadmit:        "READM",
	KindEpochBump:      "EPOCH",
}

// String returns the kind mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one protocol action.
type Event struct {
	At   time.Duration
	Kind Kind
	// Msg and Pkt identify the message and packet where applicable.
	Msg uint64
	Pkt uint32
	// A and B carry kind-specific values (bytes, pathlet id, counts).
	A, B uint64
	// Path is the pathlet the event concerns, where it concerns one.
	Path wire.PathTC
	// Out, In and State are the one object a kind carries: the queued
	// message (KindQueued), the delivered message (KindDeliver), the
	// updated pathlet (KindPathletUpdated). Nil for every other kind. In is
	// the endpoint's delivery slot, the one OnMessage gets next: valid only
	// during the call and zeroed after OnMessage returns.
	Out   *OutMessage
	In    *InMessage
	State *pathlet.State
}

// String renders the event on one line.
func (ev *Event) String() string {
	return fmt.Sprintf("%12v %-5s msg=%d pkt=%d a=%d b=%d", ev.At, ev.Kind, ev.Msg, ev.Pkt, ev.A, ev.B)
}

// emit reports a scalar event when an Observer is attached.
func (e *Endpoint) emit(kind Kind, msg uint64, pkt uint32, a, b uint64) {
	if e.cfg.Observer != nil {
		e.observe(Event{Kind: kind, Msg: msg, Pkt: pkt, A: a, B: b})
	}
}

// emitPath reports an event about pathlet p when an Observer is attached.
func (e *Endpoint) emitPath(kind Kind, p wire.PathTC) {
	if e.cfg.Observer != nil {
		e.observe(Event{Kind: kind, A: uint64(p.PathID), B: uint64(p.TC), Path: p})
	}
}

// observe stamps ev and hands it to the Observer through the endpoint's
// scratch event, so the interface call allocates nothing. The copy goes field
// by field: a whole-struct copy of a type with pointers into the heap goes
// through the garbage collector's bulk write barrier, which profiled as the
// larger part of an observed event's cost. The pointers are cleared after the
// call so the endpoint holds no message or pathlet past it. Callers have
// checked that an Observer is attached.
func (e *Endpoint) observe(ev Event) {
	s := &e.event
	s.At, s.Kind, s.Msg, s.Pkt, s.A, s.B, s.Path = e.env.Now(), ev.Kind, ev.Msg, ev.Pkt, ev.A, ev.B, ev.Path
	s.Out, s.In, s.State = ev.Out, ev.In, ev.State
	e.cfg.Observer.Observe(e, s)
	s.Out, s.In, s.State = nil, nil, nil
}
