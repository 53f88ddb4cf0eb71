package offload

import (
	"mtp/internal/simnet"
	"mtp/internal/wire"
)

// Cache is a NetCache-style in-network key-value cache installed on a
// switch. GET requests for cached keys are answered directly from the
// switch, bypassing the backend; PUTs update (write-through) and invalidate;
// everything else is forwarded unchanged.
//
// The device needs only one packet of state per request — possible because
// every MTP packet carries the full message metadata and requests are
// independent messages. A TCP stream would force the switch to reassemble
// and re-sequence the bytestream (Table 1's buffering column).
//
// Fault model: write-through keeps the backend the source of truth, so a
// crash that wipes the cache (InterposerReset) degrades to origin serving —
// every GET falls through to the backend until read-through fills repopulate
// the store. Hit-ACKs are delegated: a client running delegated-ACK
// semantics keeps its GET resendable until the response arrives, so a crash
// between the hit-ACK and the response turns into an ordinary
// retransmission that the backend answers.
type Cache struct {
	sw      *simnet.Switch
	store   map[string][]byte
	maxKeys int
	nextID  uint64

	// Stats
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Forwarded uint64
	Resets    uint64
}

// NewCache installs a cache interposer on sw with capacity maxKeys.
func NewCache(sw *simnet.Switch, maxKeys int) *Cache {
	if maxKeys <= 0 {
		maxKeys = 1024
	}
	c := &Cache{sw: sw, store: make(map[string][]byte), maxKeys: maxKeys, nextID: SpoofMsgIDBase}
	sw.Interposer = c.interpose
	sw.InterposerReset = c.reset
	return c
}

// reset models the crash: cached entries do not survive, and the backend
// serves everything until fills repopulate the store.
func (c *Cache) reset() {
	c.store = make(map[string][]byte)
	c.Resets++
}

// interpose inspects each packet; returning false consumes it.
func (c *Cache) interpose(pkt *simnet.Packet, _ *simnet.Link) bool {
	hdr := pkt.Hdr
	if hdr == nil || hdr.Type != wire.TypeData || pkt.Data == nil || hdr.MsgPkts != 1 {
		c.Forwarded++
		return true
	}
	if bypassed(pkt) {
		// The client suspects this device failed: let the request through to
		// the backend untouched.
		c.Forwarded++
		return true
	}
	op, key, value, ok := DecodeKV(pkt.Data)
	if !ok {
		c.Forwarded++
		return true
	}
	switch op {
	case kvGet:
		cached, hit := c.store[key]
		if !hit {
			c.Misses++
			c.Forwarded++
			return true
		}
		c.Hits++
		// Answer from the switch: ACK the request (spoofing the backend)
		// and send the response message to the client. The consumed request
		// packet is recycled once the reply is built.
		c.sw.Forward(ackPacket(pkt))
		rsp := dataPacket(pkt.Dst, pkt.Src, hdr.DstPort, hdr.SrcPort, c.nextID, hdr.TC,
			EncodeResponse(key, cached))
		c.nextID++
		c.sw.Forward(rsp)
		c.sw.Network().ReleasePacket(pkt)
		return false
	case kvPut:
		// Write-through: update the cache copy and forward to the backend,
		// which remains the source of truth.
		c.Puts++
		if _, exists := c.store[key]; exists || len(c.store) < c.maxKeys {
			c.store[key] = append([]byte(nil), value...)
		}
		c.Forwarded++
		return true
	default:
		// Backend responses flow through; optionally learn them.
		c.learn(key, value)
		c.Forwarded++
		return true
	}
}

// learn opportunistically caches backend responses (read-through fill).
func (c *Cache) learn(key string, value []byte) {
	if _, exists := c.store[key]; exists || len(c.store) < c.maxKeys {
		c.store[key] = append([]byte(nil), value...)
	}
}
