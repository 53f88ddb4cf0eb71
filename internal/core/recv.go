package core

import (
	"slices"
	"time"

	"mtp/internal/wire"
)

// OnPacket feeds one arriving packet into the endpoint.
func (e *Endpoint) OnPacket(in *Inbound) {
	if in == nil || in.Hdr == nil {
		return
	}
	// Incarnation gate: stragglers from a dead peer incarnation are dropped,
	// and a newer epoch resets that peer's state before processing. Packets
	// without an epoch (devices, legacy peers) always pass — the machinery
	// only engages between epoch-aware endpoints.
	var p *peer
	if e.cfg.Epoch != 0 && in.Hdr.Epoch != 0 {
		p = e.peerFor(in.From)
		if !e.admitEpoch(p, in.Hdr.Epoch) {
			return
		}
	}
	switch in.Hdr.Type {
	case wire.TypeData:
		if p == nil {
			p = e.peerFor(in.From)
		}
		e.onDataPacket(p, in)
	case wire.TypeAck, wire.TypeNack:
		e.onAckPacket(in)
	case wire.TypeControl:
		// Control packets carry only feedback lists.
		e.onAckPacket(in)
	}
	if e.sendDue && !e.inBatch {
		e.sendDue = false
		e.trySend()
	}
}

// onDataPacket runs the receiver side: reassembly, SACK/NACK generation,
// feedback echo, delivery. p is the record of the sending address.
func (e *Endpoint) onDataPacket(p *peer, in *Inbound) {
	now := e.env.Now()
	hdr := in.Hdr
	e.Stats.PktsReceived++
	key := inKey{peer: p, srcPort: hdr.SrcPort, msgID: hdr.MsgID}
	batch := e.batchFor(p, hdr.SrcPort, hdr.DstPort)

	if pd := p.dedup(hdr.SrcPort); pd != nil {
		if hdr.MsgFloor != 0 {
			pd.advanceFloor(hdr.MsgFloor)
		}
		if pd.isDone(hdr.MsgID) {
			// Retransmission of an already-delivered message: re-ack so the
			// sender can finish, but do not deliver twice.
			e.Stats.PktsDuplicate++
			batch.sack = append(batch.sack, wire.PacketRef{MsgID: hdr.MsgID, PktNum: hdr.PktNum})
			e.mergeFeedback(batch, hdr.PathFeedback)
			e.maybeFlush(p)
			return
		}
	}

	if in.Trimmed {
		// NDP-style trimmed packet: the header survived, the payload did
		// not. NACK immediately for fast retransmission.
		batch.nack = append(batch.nack, wire.PacketRef{MsgID: hdr.MsgID, PktNum: hdr.PktNum})
		e.Stats.NacksSent++
		e.mergeFeedback(batch, hdr.PathFeedback)
		e.maybeFlush(p)
		return
	}

	f := e.inflows[key]
	if f == nil {
		npkts := int(hdr.MsgPkts)
		if npkts <= 0 {
			npkts = 1
		}
		f = e.allocInMsg(key, npkts)
		e.inflows[key] = f
		e.inflowOrder = append(e.inflowOrder, f)
	}
	f.srcPort, f.dstPort = hdr.SrcPort, hdr.DstPort
	f.lastSeen = now

	// Mutation tolerance: an in-network device may rewrite the message
	// length (compression, serialization). Headers within one message are
	// rewritten consistently because devices process messages atomically,
	// but a resize can still be observed mid-reassembly if the first packets
	// predate the mutation; grow the bitmap as needed.
	if int(hdr.MsgPkts) > len(f.got) {
		grown := make([]bool, hdr.MsgPkts)
		copy(grown, f.got)
		f.got = grown
	}

	pn := int(hdr.PktNum)
	if pn >= len(f.got) {
		// Malformed or stale-header packet; ignore beyond acking.
		batch.sack = append(batch.sack, wire.PacketRef{MsgID: hdr.MsgID, PktNum: hdr.PktNum})
		e.mergeFeedback(batch, hdr.PathFeedback)
		e.maybeFlush(p)
		return
	}

	if f.got[pn] {
		e.Stats.PktsDuplicate++
		e.emit(KindDupData, hdr.MsgID, hdr.PktNum, uint64(hdr.PktLen), 0)
	} else {
		e.emit(KindRecvData, hdr.MsgID, hdr.PktNum, uint64(hdr.PktLen), 0)
		f.got[pn] = true
		for f.prefix < len(f.got) && f.got[f.prefix] {
			f.prefix++
		}
		f.high = max(f.high, pn)
		f.gotPkts++
		f.bytes += int(hdr.PktLen)
		e.Stats.PayloadBytes += uint64(hdr.PktLen)
		if in.Data != nil {
			need := int(hdr.MsgBytes)
			if len(f.data) < need {
				grown := make([]byte, need)
				copy(grown, f.data)
				f.data = grown
			}
			if int(hdr.PktOffset) <= len(f.data) {
				copy(f.data[hdr.PktOffset:], in.Data)
			} else {
				// The offset lies beyond the advertised message length — a
				// malformed header or an in-network resize that shrank
				// MsgBytes after earlier packets were cut. The bytes cannot
				// be placed; fall back to size-only delivery.
				f.synthtic = true
			}
		} else {
			f.synthtic = true
		}
	}

	batch.sack = append(batch.sack, wire.PacketRef{MsgID: hdr.MsgID, PktNum: hdr.PktNum})
	e.mergeFeedback(batch, hdr.PathFeedback)

	// Gap NACKs: the network forwards each message atomically (no
	// intra-message reordering), so a hole below the highest received
	// packet number means loss on the message's path. Under policies that
	// violate atomicity (packet spraying) this generates spurious
	// retransmissions — the reordering penalty the paper describes.
	e.collectNacks(now, f, batch)

	// Delivery on completion.
	if f.gotPkts == len(f.got) {
		defer e.releaseInMsg(f)
		e.rememberDone(key)
		e.Stats.MsgsDelivered++
		msg := &e.delivery
		*msg = InMessage{
			From:     in.From,
			SrcPort:  hdr.SrcPort,
			DstPort:  hdr.DstPort,
			MsgID:    hdr.MsgID,
			Pri:      hdr.MsgPri,
			TC:       hdr.TC,
			Size:     f.bytes,
			Complete: now,
		}
		if !f.synthtic && f.bytes <= len(f.data) {
			// Inconsistent PktLen sums (malformed or mutated headers) can
			// claim more bytes than the reassembly buffer holds; deliver
			// size-only rather than a slice that does not exist.
			msg.Data = f.data[:f.bytes]
		}
		if e.cfg.Observer != nil {
			e.observe(Event{Kind: KindDeliver, Msg: hdr.MsgID, A: uint64(f.bytes), In: msg})
		}
		if e.cfg.OnMessage != nil {
			e.cfg.OnMessage(msg)
		}
		*msg = InMessage{} // a kept pointer reads an empty message, not the next one
	}
	e.maybeFlush(p)
}

// collectNacks NACKs every hole below the highest packet received, in
// ascending order (NACK order steers retransmission order at the sender),
// skipping holes NACKed within the last half RTO. Nothing below the
// contiguous received prefix can be a hole. The scan runs to high, not to the
// packet that just arrived: holes above a late packet are NACKed again too.
func (e *Endpoint) collectNacks(now time.Duration, f *inMsg, batch *ackBatch) {
	for i := f.prefix; i < f.high; i++ {
		if f.got[i] {
			continue
		}
		pkt := uint32(i)
		if t, ok := f.nacked[pkt]; ok && now-t < f.key.peer.rtt.rto/2 {
			continue
		}
		if f.nacked == nil {
			f.nacked = make(map[uint32]time.Duration)
		}
		f.nacked[pkt] = now
		batch.nack = append(batch.nack, wire.PacketRef{MsgID: f.key.msgID, PktNum: pkt})
		e.Stats.NacksSent++
		e.emit(KindNackOut, f.key.msgID, pkt, 0, 0)
	}
}

// batchFor returns the pending ack batch toward a peer, creating it with the
// port pair of the data it acknowledges.
func (e *Endpoint) batchFor(p *peer, srcPort, dstPort uint16) *ackBatch {
	if p.ack == nil {
		p.ack = e.allocBatch(srcPort, dstPort)
		e.ackOrder = append(e.ackOrder, p)
	}
	return p.ack
}

// mergeFeedback folds the data packet's forward feedback into the batch,
// newest value winning per (pathlet, TC, type). When a feedback budget is
// configured, the oldest entries are evicted so the echoed list stays small
// (selective feedback return, Section 4).
func (e *Endpoint) mergeFeedback(b *ackBatch, fb []wire.Feedback) {
	for _, f := range fb {
		replaced := false
		for i, old := range b.feedback {
			if old.Path == f.Path && old.Type == f.Type {
				// Move to the back: freshest entries survive eviction.
				copy(b.feedback[i:], b.feedback[i+1:])
				b.feedback[len(b.feedback)-1] = f
				replaced = true
				break
			}
		}
		if !replaced {
			b.feedback = append(b.feedback, f)
		}
	}
	if e.cfg.FeedbackBudget > 0 && len(b.feedback) > e.cfg.FeedbackBudget {
		drop := len(b.feedback) - e.cfg.FeedbackBudget
		b.feedback = append(b.feedback[:0], b.feedback[drop:]...)
	}
}

// BeginBatch opens a bracket around a run of OnPacket calls that arrived
// together (what a socket had queued). Inside it nothing is acknowledged and the
// sender side does not transmit: EndBatch flushes once per peer, so one ACK
// packet covers every data packet the bracket received from that peer, and
// runs trySend once however many ACK packets arrived. A
// bracket of one packet behaves exactly like no bracket. The caller bounds
// the bracket (udpnet: 32 datagrams) and with it the ACK's SACK list.
// Environments that never open one — the simulator — are untouched.
func (e *Endpoint) BeginBatch() { e.inBatch = true }

// EndBatch closes the bracket: it settles every pending ack batch, in
// batch-creation order, and resumes sending if an ACK or a peer restart
// released sends. Without an open bracket it does nothing.
func (e *Endpoint) EndBatch() {
	if !e.inBatch {
		return
	}
	e.inBatch = false
	e.flushAllAcks()
	if e.sendDue {
		e.sendDue = false
		e.trySend()
	}
}

// maybeFlush is the one flush rule: inside a bracket the peer's batch waits
// for EndBatch; otherwise it goes out now.
func (e *Endpoint) maybeFlush(p *peer) {
	if !e.inBatch {
		e.flush(p)
	}
}

// flush emits one ACK packet carrying the peer's pending batch and retires
// it; a batch that is still empty is retired silently.
func (e *Endpoint) flush(p *peer) {
	b := p.ack
	if len(b.sack) == 0 && len(b.nack) == 0 && len(b.feedback) == 0 {
		e.dropBatch(p)
		return
	}
	hdr := &e.ackHdr
	*hdr = wire.Header{
		Type:            wire.TypeAck,
		SrcPort:         b.dstPort,
		DstPort:         b.srcPort,
		Epoch:           e.cfg.Epoch,
		AckPathFeedback: b.feedback,
		SACK:            b.sack,
		NACK:            b.nack,
		// ACKs honor the endpoint's path exclusions like any other traffic:
		// a receiver that is also sending knows which of its pathlets are
		// dead, and its feedback must not be routed into them.
		PathExclude: e.table.ExcludeList(),
	}
	e.Stats.AcksSent++
	e.emit(KindSendAck, 0, 0, uint64(len(b.sack)), uint64(len(b.nack)))
	e.output(p.addr, hdr, nil, hdr.EncodedLen()+headerOverhead)
	e.dropBatch(p)
}

// dropBatch takes the peer's pending batch off ackOrder and recycles it.
func (e *Endpoint) dropBatch(p *peer) {
	if i := slices.Index(e.ackOrder, p); i >= 0 {
		e.ackOrder = slices.Delete(e.ackOrder, i, i+1)
	}
	e.releaseBatch(p.ack)
	p.ack = nil
}

// flushAllAcks drains every pending batch (EndBatch and the re-NACK timer
// pass) in batch-creation order.
func (e *Endpoint) flushAllAcks() {
	for len(e.ackOrder) > 0 {
		e.flush(e.ackOrder[0])
	}
}
