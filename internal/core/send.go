package core

import (
	"slices"
	"sort"
	"time"

	"mtp/internal/wire"
)

// trySend transmits as many packets as the current pathlet's window and
// pacing allow, preferring retransmissions, then higher-priority messages,
// then arrival order.
func (e *Endpoint) trySend() {
	now := e.env.Now()
	for {
		m, idx, isRtx := e.nextPacket()
		if m == nil {
			return
		}
		st := e.table.Current()
		length := int(m.pkts[idx].length)
		// Retransmissions bypass window admission: their bytes are already
		// attributed in flight (the lost copies), so blocking them on the
		// window they themselves occupy would deadlock recovery.
		if !isRtx && !st.CanSend(length) {
			// Window-limited on the current pathlet. Progress resumes when
			// acks arrive; make sure some timer is armed so the endpoint
			// cannot deadlock if every in-flight packet is lost.
			if e.timerAt == 0 || e.timerAt <= now {
				e.setTimer(now + m.peer.rtt.rto)
			}
			return
		}
		// Rate pacing when the current pathlet's algorithm is rate-based.
		if bps, ok := st.Algo.Rate(); ok && bps > 0 {
			if now < e.nextSendAt {
				e.setTimer(e.nextSendAt)
				return
			}
			interval := time.Duration(float64(length+headerOverhead) * 8 / bps * float64(time.Second))
			if e.nextSendAt < now {
				e.nextSendAt = now
			}
			e.nextSendAt += interval
		}
		e.transmit(m, idx, isRtx, st.Path)
	}
}

// nextPacket picks the next packet to send: any pending retransmission
// first (oldest message first), otherwise the first unsent packet of the
// best (priority, arrival) message.
func (e *Endpoint) nextPacket() (*OutMessage, int, bool) {
	var best *OutMessage
	for _, m := range e.active {
		// Drop retransmission entries that were acknowledged (fully or by a
		// delegated ACK) after being queued — resending them would leak
		// in-flight accounting.
		for len(m.rtxQueue) > 0 && (m.pkts[m.rtxQueue[0]].acked || m.pkts[m.rtxQueue[0]].delegated) {
			m.pkts[m.rtxQueue[0]].inRtx = false
			m.rtxQueue = m.rtxQueue[1:]
		}
		if len(m.rtxQueue) > 0 {
			return m, m.rtxQueue[0], true
		}
		if m.nextNew < len(m.pkts) {
			if best == nil || m.Pri > best.Pri {
				best = m
			}
		}
	}
	if best == nil {
		return nil, 0, false
	}
	return best, best.nextNew, false
}

// transmit emits one data packet and updates send state.
func (e *Endpoint) transmit(m *OutMessage, idx int, isRtx bool, path wire.PathTC) {
	p := &m.pkts[idx]
	hdr := &e.dataHdr
	*hdr = wire.Header{
		Type:        wire.TypeData,
		SrcPort:     e.cfg.LocalPort,
		DstPort:     m.DstPort,
		Epoch:       e.cfg.Epoch,
		MsgFloor:    e.msgFloor(),
		MsgID:       m.ID,
		MsgPri:      m.Pri,
		TC:          m.TC,
		MsgBytes:    uint32(m.Size),
		MsgPkts:     uint32(len(m.pkts)),
		PktNum:      uint32(idx),
		PktOffset:   p.offset,
		PktLen:      p.length,
		PathExclude: e.sendExcludeList(),
	}
	if m.bypass {
		// A delegated ACK for this message went unconfirmed: ask in-network
		// devices to pass the raw payload through to the true destination.
		hdr.Flags |= wire.FlagBypassOffload
	}
	var data []byte
	if m.data != nil {
		data = m.data[p.offset : int(p.offset)+int(p.length)]
	}
	now := e.env.Now()
	if isRtx {
		m.rtxQueue = m.rtxQueue[1:]
		p.inRtx = false
		p.retxPkt = true
		p.rtxs++
		e.Stats.PktsRetx++
	} else {
		m.nextNew = idx + 1
	}
	if p.attributed {
		// Re-transmission of a packet still counted in flight: release the
		// old attribution before re-attributing.
		e.table.RemoveInflight(p.path, int(p.length))
	}
	p.sent = true
	p.sentAt = now
	p.path = path
	e.table.AddInflight(path, int(p.length))
	p.attributed = true
	e.Stats.PktsSent++
	if e.cfg.Observer != nil {
		kind := KindSendData
		if isRtx {
			kind = KindRetransmit
		}
		e.observe(Event{Kind: kind, Msg: m.ID, Pkt: uint32(idx), A: uint64(p.length), B: uint64(path.PathID), Path: path})
	}

	e.output(m.Dst, hdr, data, hdr.EncodedLen()+headerOverhead+int(p.length))
	e.setTimer(now + m.peer.rtt.rto)
}

// onAckPacket processes an arriving ACK/NACK packet at the sender.
func (e *Endpoint) onAckPacket(in *Inbound) {
	now := e.env.Now()
	hdr := in.Hdr
	e.Stats.AcksReceived++
	e.Stats.NacksReceived += uint64(len(hdr.NACK))
	e.emit(KindRecvAck, 0, 0, uint64(len(hdr.SACK)), uint64(len(hdr.NACK)))

	ackedBytes := 0
	var rttSample time.Duration
	var rttPeer *peer // destination of the message rttSample came from
	completed := e.completed[:0]

	// A delegated ACK (spoofed by an in-network device) is provisional when
	// delegation is enabled: it opens the window but leaves the packet
	// resendable until end-to-end confirmation. With delegation disabled it
	// is treated like any final ACK.
	provisional := hdr.Flags&wire.FlagDelegatedAck != 0 && e.cfg.DelegateTimeout > 0
	delegArmed := false

	for _, ref := range hdr.SACK {
		m := e.byID[ref.MsgID]
		if m == nil || int(ref.PktNum) >= len(m.pkts) {
			continue
		}
		p := &m.pkts[ref.PktNum]
		if p.acked || !p.sent {
			continue
		}
		if provisional {
			if p.delegated {
				continue
			}
			p.delegated = true
			p.delegAt = now
			e.Stats.DelegatedAcks++
			ackedBytes += int(p.length)
			if p.attributed {
				e.table.RemoveInflight(p.path, int(p.length))
				p.attributed = false
			}
			if !p.retxPkt {
				if s := now - p.sentAt; s > rttSample {
					rttSample, rttPeer = s, m.peer
				}
			}
			delegArmed = true
			continue
		}
		wasDelegated := p.delegated
		p.delegated = false
		p.acked = true
		m.ackedPkts++
		if !wasDelegated {
			// A packet confirmed after a delegated ACK already fed the
			// window and the RTT estimator once; don't credit it twice.
			ackedBytes += int(p.length)
			if !p.retxPkt {
				if s := now - p.sentAt; s > rttSample {
					rttSample, rttPeer = s, m.peer
				}
			}
		}
		if p.attributed {
			e.table.RemoveInflight(p.path, int(p.length))
			p.attributed = false
		}
		if m.ackedPkts == len(m.pkts) {
			m.done = true
			completed = append(completed, m)
		}
	}
	e.sampleRTT(rttPeer, rttSample)
	if delegArmed {
		e.setTimer(now + e.cfg.DelegateTimeout)
	}

	// Feed pathlet congestion control with the echoed network feedback.
	if ackedBytes > 0 || len(hdr.AckPathFeedback) > 0 {
		updated := e.table.OnAck(now, hdr.AckPathFeedback, ackedBytes, rttSample)
		if e.fo != nil {
			// Feedback is proof of life: clear timeout runs and readmit
			// dead pathlets a probe successfully crossed.
			for _, st := range updated {
				e.noteFeedbackPath(st.Path)
			}
		}
		if e.cfg.Observer != nil {
			for _, st := range updated {
				e.observe(Event{Kind: KindPathletUpdated, A: uint64(st.Algo.Window()), B: uint64(st.Inflight), Path: st.Path, State: st})
			}
		}
	}
	if e.excluder != nil {
		e.excluder.observe(e, now, hdr.AckPathFeedback)
	}

	// NACKed packets are retransmitted immediately and count as congestion
	// on the pathlet they were sent over. ACKs reference a handful of
	// pathlets at most, so a scratch slice with linear membership checks
	// replaces a per-ACK map allocation.
	lossPaths := e.lossPaths[:0]
	for _, ref := range hdr.NACK {
		m := e.byID[ref.MsgID]
		if m == nil || int(ref.PktNum) >= len(m.pkts) {
			continue
		}
		p := &m.pkts[ref.PktNum]
		if p.acked || p.delegated || !p.sent || p.inRtx {
			continue
		}
		p.inRtx = true
		m.rtxQueue = append(m.rtxQueue, int(ref.PktNum))
		e.emit(KindNackIn, ref.MsgID, ref.PktNum, 0, 0)
		if !pathSeen(lossPaths, p.path) {
			lossPaths = append(lossPaths, p.path)
			e.table.OnLoss(now, p.path)
		}
	}
	e.lossPaths = lossPaths[:0]

	if len(completed) > 0 {
		e.removeCompleted()
		for _, m := range completed {
			e.Stats.MsgsCompleted++
			e.emit(KindComplete, m.ID, 0, uint64(m.Size), 0)
			if e.cfg.OnMessageSent != nil {
				e.cfg.OnMessageSent(m)
			}
		}
	}
	e.completed = completed[:0]
	if e.inBatch {
		e.sendDue = true // EndBatch sends once for the whole bracket
		return
	}
	e.trySend()
}

// pathSeen reports whether p is already in the scratch list.
func pathSeen(list []wire.PathTC, p wire.PathTC) bool {
	for _, q := range list {
		if q == p {
			return true
		}
	}
	return false
}

func (e *Endpoint) removeCompleted() {
	kept := e.active[:0]
	for _, m := range e.active {
		if !m.done {
			kept = append(kept, m)
		} else {
			delete(e.byID, m.ID)
		}
	}
	// Clear the tail so completed messages can be collected.
	for i := len(kept); i < len(e.active); i++ {
		e.active[i] = nil
	}
	e.active = kept
}

// OnTimer drives time-based work: retransmission timeouts, re-NACKs,
// receive-side garbage collection, and paced sends.
func (e *Endpoint) OnTimer(now time.Duration) {
	e.timerAt = 0

	// Retransmission timeouts. Delegated packets are exempt: they wait on
	// the separate delegate-confirmation deadline below.
	var next time.Duration
	backedOff := e.backedOff[:0]
	lossPaths := e.lossPaths[:0]
	for _, m := range e.active {
		for i := range m.pkts {
			p := &m.pkts[i]
			if !p.sent || p.acked || p.inRtx {
				continue
			}
			if p.delegated {
				deadline := p.delegAt + e.cfg.DelegateTimeout
				if deadline <= now {
					// The device that acknowledged on the destination's
					// behalf never confirmed end to end — presume it dead.
					// Revert to unacknowledged and retransmit with the
					// bypass flag so no device absorbs the payload again.
					p.delegated = false
					p.inRtx = true
					m.rtxQueue = append(m.rtxQueue, i)
					m.bypass = true
					e.Stats.DelegateTimeouts++
					e.emit(KindTimeout, m.ID, uint32(i), 1, 0)
				} else if next == 0 || deadline < next {
					next = deadline
				}
				continue
			}
			deadline := p.sentAt + m.peer.rtt.rto
			if deadline <= now {
				p.inRtx = true
				m.rtxQueue = append(m.rtxQueue, i)
				e.Stats.Timeouts++
				if !slices.Contains(backedOff, m.peer) {
					backedOff = append(backedOff, m.peer)
				}
				e.emit(KindTimeout, m.ID, uint32(i), 0, 0)
				if !pathSeen(lossPaths, p.path) {
					lossPaths = append(lossPaths, p.path)
					e.table.OnLoss(now, p.path)
					// One timeout round per pathlet per firing counts
					// toward the consecutive-RTO death threshold.
					e.noteTimeoutPath(p.path)
				}
			} else if next == 0 || deadline < next {
				next = deadline
			}
		}
		// Keep retransmissions in packet order for cache-friendly receive.
		if len(m.rtxQueue) > 1 {
			sort.Ints(m.rtxQueue)
		}
	}
	e.lossPaths = lossPaths[:0]
	// One exponential backoff per peer per timer firing, however many of its
	// packets expired together, and only after the walk so every deadline
	// above used the same timeout.
	for _, pr := range backedOff {
		e.backoffRTO(pr)
	}
	e.backedOff = backedOff[:0]

	// Re-NACK holes whose hold-off has expired, scanning partial messages in
	// arrival order (not map order) for determinism.
	for _, f := range e.inflowOrder {
		if f.prefix < f.high {
			e.collectNacks(now, f, e.batchFor(f.key.peer, f.srcPort, f.dstPort))
		}
	}
	e.flushAllAcks()

	// Receive-side GC of stale partial messages.
	e.dropInMsgs(func(f *inMsg) bool { return now-f.lastSeen > receiveTimeout })

	e.trySend()
	if next != 0 {
		e.setTimer(next)
	}
}
