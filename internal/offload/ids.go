package offload

import (
	"bytes"

	"mtp/internal/simnet"
	"mtp/internal/wire"
)

// IDS is an inline intrusion-detection/prevention offload (the paper cites
// 100 Gbps in-network IDS as a motivating use case). It scans message
// payloads for byte signatures as packets stream through the switch. MTP's
// atomic-message rule means a message's packets cross the device in order,
// so cross-packet matches need only a (patternLen-1)-byte overlap tail per
// in-flight message — bounded state, no stream reassembly.
type IDS struct {
	sw       *simnet.Switch
	patterns [][]byte
	maxLen   int
	// Inline (IPS) mode consumes packets of flagged messages; detection
	// mode only counts.
	Inline bool

	// flows holds the in-flight messages' scan states, each at most
	// maxLen-1 bytes.
	flows map[idsKey]*idsFlow

	// Stats
	ScannedPkts  uint64
	ScannedBytes uint64
	Matches      uint64
	DroppedPkts  uint64
	Resets       uint64
}

type idsKey struct {
	src   simnet.NodeID
	port  uint16
	msgID uint64
}

type idsFlow struct {
	tail    []byte
	flagged bool
	seen    uint32
}

// NewIDS installs the scanner on sw with the given signatures.
func NewIDS(sw *simnet.Switch, patterns [][]byte, inline bool) *IDS {
	if len(patterns) == 0 {
		panic("offload: IDS needs patterns")
	}
	ids := &IDS{sw: sw, patterns: patterns, Inline: inline, flows: make(map[idsKey]*idsFlow)}
	for _, p := range patterns {
		if len(p) == 0 {
			panic("offload: empty IDS pattern")
		}
		if len(p) > ids.maxLen {
			ids.maxLen = len(p)
		}
	}
	sw.Interposer = ids.interpose
	sw.InterposerReset = ids.reset
	return ids
}

// reset models the crash: in-flight overlap tails are lost, so a signature
// straddling the crash instant can slip through — the documented blind spot
// of any stateful inline scanner.
func (ids *IDS) reset() {
	ids.flows = make(map[idsKey]*idsFlow)
	ids.Resets++
}

func (ids *IDS) interpose(pkt *simnet.Packet, _ *simnet.Link) bool {
	hdr := pkt.Hdr
	if hdr == nil || hdr.Type != wire.TypeData || pkt.Data == nil {
		return true
	}
	// Deliberately no bypass-flag check: the flag asks compute offloads to
	// stand aside, but a security scanner that honored it would hand every
	// attacker a one-bit skip switch. Bypass retransmissions are scanned
	// like any other traffic.
	key := idsKey{src: pkt.Src, port: hdr.SrcPort, msgID: hdr.MsgID}
	f := ids.flows[key]
	if f == nil {
		f = &idsFlow{}
		ids.flows[key] = f
	}
	f.seen++
	last := f.seen >= hdr.MsgPkts

	if !f.flagged {
		ids.ScannedPkts++
		ids.ScannedBytes += uint64(len(pkt.Data))
		// Scan the overlap tail plus this packet's payload.
		buf := pkt.Data
		if len(f.tail) > 0 {
			buf = append(append(make([]byte, 0, len(f.tail)+len(pkt.Data)), f.tail...), pkt.Data...)
		}
		for _, p := range ids.patterns {
			if bytes.Contains(buf, p) {
				f.flagged = true
				ids.Matches++
				break
			}
		}
		// Keep the last maxLen-1 bytes for cross-packet matches.
		keep := ids.maxLen - 1
		if keep > 0 && !last {
			if len(buf) > keep {
				buf = buf[len(buf)-keep:]
			}
			f.tail = append(f.tail[:0], buf...)
		}
	}
	flagged := f.flagged
	if last {
		delete(ids.flows, key)
	}
	if flagged && ids.Inline {
		ids.DroppedPkts++
		ids.sw.Network().ReleasePacket(pkt)
		return false // consume: the flagged message never completes
	}
	return true
}
