package core

import (
	"mtp/internal/wire"
)

// admitEpoch gates an arriving packet on its sender's incarnation epoch.
// It returns false when the packet is a straggler from a dead incarnation
// and must be dropped. The first epoch seen from a peer is recorded as-is;
// a newer one (serial-number comparison, so a wrapping millisecond-derived
// epoch space still orders) proves the peer restarted and triggers a full
// per-peer state reset before the packet is processed.
func (e *Endpoint) admitEpoch(p *peer, ep uint32) bool {
	last := p.epoch
	if last == 0 {
		p.epoch = ep
		return true
	}
	if ep == last {
		return true
	}
	if !wire.EpochNewer(ep, last) {
		e.Stats.StaleEpochDrops++
		return false
	}
	p.epoch = ep
	e.Stats.EpochBumps++
	e.emit(KindEpochBump, 0, 0, uint64(ep), uint64(last))
	e.resetPeer(p)
	return true
}

// resetPeer discards every piece of protocol state learned against a peer's
// previous incarnation. A restarted peer has lost its reassembly buffers and
// its duplicate-suppression ring, so:
//
//   - Receiver side: partial inbound messages from the peer are dropped (the
//     new incarnation will never finish them — message IDs restart), and the
//     peer's entries leave the done-set so the new incarnation's reused IDs
//     are not mistaken for duplicates. Pending ACKs toward it are discarded.
//   - Sender side: every unfinished message toward the peer is rewound to
//     fully unsent. Acknowledgements from the dead incarnation are worthless —
//     the bytes they covered died with its reassembly state — so all packets
//     are retransmitted from scratch. Messages that completed before the
//     restart are NOT resent: their delivery happened in the old incarnation
//     and replaying them into the new one would violate exactly-once.
//   - Estimates: the peer's RTT estimator restarts (other peers keep theirs)
//     and every pathlet's congestion algorithm restarts (re-slow-start). The
//     latter is deliberately conservative — pathlet state is not per-peer, so
//     windows learned against other peers are also discarded — but a host
//     restart is rare and safety beats warmth.
//     In-flight attribution is preserved except for the rewound packets,
//     whose attribution is released here.
func (e *Endpoint) resetPeer(p *peer) {
	// Receiver state: partial reassembly, duplicate suppression, the pending
	// ACK.
	e.dropInMsgs(func(f *inMsg) bool { return f.key.peer == p })
	p.dones = nil
	if p.ack != nil {
		e.dropBatch(p)
	}

	// Sender state: rewind every unfinished message toward the peer.
	for _, m := range e.active {
		if m.peer != p {
			continue
		}
		for i := range m.pkts {
			pk := &m.pkts[i]
			if pk.attributed {
				e.table.RemoveInflight(pk.path, int(pk.length))
				pk.attributed = false
			}
			pk.sent = false
			pk.acked = false
			pk.inRtx = false
			pk.delegated = false
			// Karn's rule: the resend of a previously transmitted packet must
			// not feed the RTT estimator.
			if pk.rtxs > 0 || pk.sentAt != 0 {
				pk.retxPkt = true
			}
			pk.sentAt = 0
		}
		m.nextNew = 0
		m.ackedPkts = 0
		m.rtxQueue = m.rtxQueue[:0]
	}

	// Estimates: this peer's RTO back to its initial value — in place, the
	// rewound messages above hold the record — and slow start everywhere.
	p.rtt = peerRTT{rto: e.cfg.RTO}
	e.table.ResetAlgorithms()

	e.trySend()
}
