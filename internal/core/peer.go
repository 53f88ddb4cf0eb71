package core

import (
	"slices"
	"time"
)

// peer is what the endpoint knows about one remote address. MTP keeps no
// connections, but an endpoint still learns a few things per address: the
// retransmission clock toward it, its incarnation, which of its messages
// were delivered, and the ACK owed to it. They live here, in one record made
// the first time the address is sent to or heard from, and a peer restart
// (resetPeer) clears them in place.
type peer struct {
	addr Addr
	// rtt is the RFC 6298 estimator toward the peer. A shared estimator would
	// floor on the nearest peer and resend everything bound for a far one
	// before its ACK could return. It starts at Config.RTO, which is also the
	// re-NACK horizon toward a peer this endpoint only receives from.
	rtt peerRTT
	// sent is set by the first Send toward the peer: PeerRTT answers only then.
	sent bool
	// epoch is the peer's last-seen incarnation (Config.Epoch != 0 only);
	// 0 until an epoch-carrying packet arrives.
	epoch uint32
	// dones is the duplicate-suppression state, one entry per source port the
	// peer's delivered messages carried: message IDs are only unique per
	// sending endpoint. Senders advertise their fully-acknowledged message
	// floor in every data header, which keeps each entry EXACT and bounded by
	// that sender's in-flight window — a shared LRU cache is not safe here,
	// because heavy cross traffic can evict a slow sender's entries before it
	// processes its ACKs (e.g. a host frozen mid-run), turning its
	// retransmissions into double deliveries. Nil until a first delivery:
	// send-only endpoints never pay.
	dones []peerDone
	// ack is the pending ACK toward the peer; nil when none is pending.
	ack *ackBatch
}

// peerFor returns the record of addr, making it on first contact.
func (e *Endpoint) peerFor(addr Addr) *peer {
	p := e.peers[addr]
	if p == nil {
		p = &peer{addr: addr, rtt: peerRTT{rto: e.cfg.RTO}}
		e.peers[addr] = p
	}
	return p
}

// peerRTT is the RFC 6298 estimator toward one peer: smoothed RTT, its
// variance, and the current (possibly backed-off) timeout.
type peerRTT struct {
	srtt   time.Duration
	rttvar time.Duration
	rto    time.Duration
}

// PeerRTT reports the smoothed RTT and the effective retransmission timeout
// toward a peer. ok is false until something is sent there. srtt is zero
// until the first sample.
func (e *Endpoint) PeerRTT(addr Addr) (srtt, rto time.Duration, ok bool) {
	p := e.peers[addr]
	if p == nil || !p.sent {
		return 0, 0, false
	}
	return p.rtt.srtt, p.rtt.rto, true
}

// sampleRTT feeds one fresh (never-retransmitted) RTT measurement into the
// peer's estimator and recomputes its RTO, collapsing any exponential
// backoff.
func (e *Endpoint) sampleRTT(p *peer, s time.Duration) {
	if p == nil || s <= 0 {
		return
	}
	pr := &p.rtt
	if pr.srtt == 0 {
		pr.srtt = s
		pr.rttvar = s / 2
	} else {
		d := pr.srtt - s
		if d < 0 {
			d = -d
		}
		pr.rttvar = (3*pr.rttvar + d) / 4
		pr.srtt = (7*pr.srtt + s) / 8
	}
	pr.rto = min(max(pr.srtt+4*pr.rttvar, e.cfg.MinRTO), e.cfg.MaxRTO)
}

// backoffRTO doubles the peer's RTO after a timeout round, up to MaxRTO.
func (e *Endpoint) backoffRTO(p *peer) {
	if p.rtt.rto >= e.cfg.MaxRTO {
		return
	}
	p.rtt.rto = min(2*p.rtt.rto, e.cfg.MaxRTO)
	e.Stats.RTOBackoffs++
}

// peerDone is one sending endpoint's duplicate-suppression state. Every
// delivered message ID at or above floor is in done; every ID below floor
// was fully acknowledged end to end (the sender said so in its data
// headers), so its membership is implied and the entry can be discarded.
type peerDone struct {
	port  uint16
	floor uint64
	done  map[uint64]struct{}
}

// doneCap bounds the done set of a sender that never advertises a floor
// (in-network devices, foreign stacks). Such peers get best-effort dedup:
// when the set overflows, the oldest half of the IDs is evicted WITHOUT
// advancing the floor — an evicted ID becomes deliverable again rather than
// a false duplicate. Floor-advertising senders never hit this cap: their set
// is bounded by their own in-flight window.
const doneCap = 8192

// dedup returns the peer's duplicate-suppression state for a source port,
// or nil when no message from it was delivered yet.
func (p *peer) dedup(port uint16) *peerDone {
	for i := range p.dones {
		if p.dones[i].port == port {
			return &p.dones[i]
		}
	}
	return nil
}

// advanceFloor raises the sender's acknowledged floor and drops the done
// entries it makes redundant.
func (pd *peerDone) advanceFloor(floor uint64) {
	if floor <= pd.floor {
		return
	}
	pd.floor = floor
	for id := range pd.done {
		if id < floor {
			delete(pd.done, id)
		}
	}
}

// isDone reports whether the sender's message id was already delivered.
func (pd *peerDone) isDone(id uint64) bool {
	if id < pd.floor {
		return true
	}
	_, ok := pd.done[id]
	return ok
}

// rememberDone records a completed inbound message so retransmissions of it
// are re-acked but not re-delivered.
func (e *Endpoint) rememberDone(k inKey) {
	pd := k.peer.dedup(k.srcPort)
	if pd == nil {
		k.peer.dones = append(k.peer.dones, peerDone{port: k.srcPort, done: make(map[uint64]struct{})})
		pd = &k.peer.dones[len(k.peer.dones)-1]
	}
	if k.msgID < pd.floor {
		return
	}
	pd.done[k.msgID] = struct{}{}
	if pd.floor == 0 && len(pd.done) > doneCap {
		// Floorless sender overflow: sort the IDs and forget the oldest
		// half. O(n log n) every doneCap/2 deliveries, amortized O(log n).
		ids := make([]uint64, 0, len(pd.done))
		for id := range pd.done {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids[:len(ids)/2] {
			delete(pd.done, id)
		}
	}
}
