package core

import (
	"slices"
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
			if e.timerAt == 0 {
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
		e.transmit(now, m, idx, isRtx, st.Path)
	}
}

// nextPacket picks the next packet to send: any pending retransmission
// first (oldest message first, lowest index first), otherwise the first
// unsent packet of the best (priority, arrival) message.
func (e *Endpoint) nextPacket() (*OutMessage, int, bool) {
	var best *OutMessage
	for _, m := range e.active {
		if m.lost > 0 {
			i := slices.IndexFunc(m.pkts, func(p outPkt) bool { return p.state == pktLost })
			return m, i, true
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

// lose presumes packet i of m lost: it waits for its resend.
func (m *OutMessage) lose(i int) {
	m.pkts[i].state = pktLost
	m.lost++
}

// transmit emits one data packet at now and updates send state.
func (e *Endpoint) transmit(now time.Duration, m *OutMessage, idx int, isRtx bool, path wire.PathTC) {
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
		PathExclude: e.sendExcludeList(now),
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
	if isRtx {
		// A lost packet still counts in flight on the pathlet it was lost
		// on: move its bytes to the one it leaves on now.
		m.lost--
		p.resent = true
		e.table.RemoveInflight(p.path, int(p.length))
		e.Stats.PktsRetx++
	} else {
		m.nextNew = idx + 1
	}
	p.state = pktInFlight
	p.sentAt = now
	p.path = path
	e.table.AddInflight(path, int(p.length))
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
		m := e.lookup(ref.MsgID)
		if m == nil || int(ref.PktNum) >= len(m.pkts) {
			continue
		}
		p := &m.pkts[ref.PktNum]
		switch p.state {
		case pktUnsent, pktAcked:
			continue
		case pktDelegated:
			if provisional {
				continue
			}
			// Confirmed after a delegated ACK, which already fed the window
			// and the RTT estimator once: don't credit it twice.
		case pktInFlight, pktLost:
			ackedBytes += int(p.length)
			if !p.resent {
				if s := now - p.sentAt; s > rttSample {
					rttSample, rttPeer = s, m.peer
				}
			}
			if p.state == pktLost {
				m.lost--
			}
			e.table.RemoveInflight(p.path, int(p.length))
		}
		if provisional {
			p.state = pktDelegated
			p.delegAt = now
			e.Stats.DelegatedAcks++
			delegArmed = true
			continue
		}
		p.state = pktAcked
		m.ackedPkts++
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
		if e.cfg.FailoverRTOs > 0 {
			// Feedback is proof of life: clear timeout runs and readmit
			// dead pathlets a probe successfully crossed.
			for _, st := range updated {
				e.noteFeedbackPath(st)
			}
		}
		if e.cfg.Observer != nil {
			for _, st := range updated {
				e.observe(Event{Kind: KindPathletUpdated, A: uint64(st.Algo.Window()), B: uint64(st.Inflight), Path: st.Path, State: st})
			}
		}
	}
	if e.cfg.AutoExclude {
		e.autoExclude(now, hdr.AckPathFeedback)
	}

	// NACKed packets are retransmitted immediately and count as congestion
	// on the pathlet they were sent over. ACKs reference a handful of
	// pathlets at most, so a scratch slice with linear membership checks
	// replaces a per-ACK map allocation.
	lossPaths := e.lossPaths[:0]
	for _, ref := range hdr.NACK {
		m := e.lookup(ref.MsgID)
		if m == nil || int(ref.PktNum) >= len(m.pkts) {
			continue
		}
		p := &m.pkts[ref.PktNum]
		if p.state != pktInFlight {
			continue
		}
		m.lose(int(ref.PktNum))
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
			e.finish(m)
		}
	}
	e.completed = completed[:0]
	e.sendDue = true // OnPacket or EndBatch sends
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

	// Deadlines: an in-flight packet's retransmission timeout, a delegated
	// packet's end-to-end confirmation (Config.DelegateTimeout). Either
	// expiry makes the packet lost.
	var next time.Duration
	backedOff := e.backedOff[:0]
	lossPaths := e.lossPaths[:0]
	for _, m := range e.active {
		for i := range m.pkts {
			p := &m.pkts[i]
			var deadline time.Duration
			switch p.state {
			case pktInFlight:
				deadline = p.sentAt + m.peer.rtt.rto
			case pktDelegated:
				deadline = p.delegAt + e.cfg.DelegateTimeout
			default:
				continue
			}
			if deadline > now {
				if next == 0 || deadline < next {
					next = deadline
				}
				continue
			}
			delegated := p.state == pktDelegated
			m.lose(i)
			if delegated {
				// The device that acknowledged on the destination's behalf
				// never confirmed end to end — presume it dead. The packet
				// is lost on the pathlet it last left on and goes out again
				// with the bypass flag, so no device absorbs the payload
				// again.
				e.table.AddInflight(p.path, int(p.length))
				m.bypass = true
				e.Stats.DelegateTimeouts++
				e.emit(KindTimeout, m.ID, uint32(i), 1, 0)
				continue
			}
			e.Stats.Timeouts++
			if !slices.Contains(backedOff, m.peer) {
				backedOff = append(backedOff, m.peer)
			}
			e.emit(KindTimeout, m.ID, uint32(i), 0, 0)
			if !pathSeen(lossPaths, p.path) {
				lossPaths = append(lossPaths, p.path)
				e.table.OnLoss(now, p.path)
				// One timeout round per pathlet per firing counts toward
				// the consecutive-RTO death threshold.
				if e.cfg.FailoverRTOs > 0 {
					e.noteTimeoutPath(p.path)
				}
			}
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
