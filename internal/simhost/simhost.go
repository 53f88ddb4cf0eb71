// Package simhost binds the sans-IO MTP endpoint (internal/core) to
// simulated hosts (internal/simnet): packets flow through simulated links
// and timers run on the discrete-event engine. The same endpoint code runs
// on real sockets via the public mtp package.
package simhost

import (
	"time"

	"mtp/internal/core"
	"mtp/internal/sim"
	"mtp/internal/simnet"
	"mtp/internal/wire"
)

// MTPHost is an MTP endpoint attached to a simulated host.
type MTPHost struct {
	Host *simnet.Host
	EP   *core.Endpoint

	eng   *sim.Engine
	net   *simnet.Network
	timer sim.Timer
	// ackFlow numbers outgoing control packets so their flow identity varies
	// (see Output); deterministic because sends are.
	ackFlow uint64
}

// AttachMTP creates an MTP endpoint on host. Peer addresses are
// simnet.NodeID values.
func AttachMTP(net *simnet.Network, host *simnet.Host, cfg core.Config) *MTPHost {
	mh := &MTPHost{Host: host, eng: net.Engine(), net: net}
	mh.EP = core.NewEndpoint(mh, cfg)
	host.SetHandler(func(pkt *simnet.Packet) {
		if pkt.Hdr == nil {
			return
		}
		if pkt.Corrupted {
			// An injected fault corrupted the packet. The wire checksum
			// drops it on real sockets; the simulator models the same drop
			// without materializing bit flips.
			return
		}
		mh.EP.OnPacket(&core.Inbound{
			From:    pkt.Src,
			Hdr:     pkt.Hdr,
			Data:    pkt.Data,
			Trimmed: pkt.Trimmed,
		})
	})
	return mh
}

// Now implements core.Env.
func (mh *MTPHost) Now() time.Duration { return mh.eng.Now() }

// Output implements core.Env: wrap and enqueue on the host's uplink.
func (mh *MTPHost) Output(pkt *core.Outbound) {
	dst, ok := pkt.Dst.(simnet.NodeID)
	if !ok {
		panic("simhost: destination is not a simnet.NodeID")
	}
	// Flow identity groups the packets of one message so ECMP keeps a
	// message on one path while different messages spread.
	flow := pkt.Hdr.MsgID<<16 | uint64(pkt.Hdr.SrcPort)
	if pkt.Hdr.Type == wire.TypeAck || pkt.Hdr.Type == wire.TypeNack {
		// Control packets have no intra-message ordering constraint, so each
		// gets a fresh flow identity and ECMP spreads them across paths. A
		// constant identity would pin the whole feedback channel to one hash
		// bucket: if that path dies, data escapes via its exclude list but
		// the acks proving the detour works never return, and the sender
		// retransmits forever.
		mh.ackFlow++
		flow = mh.ackFlow<<16 | uint64(pkt.Hdr.SrcPort)
	}
	sp := mh.net.AllocPacket()
	sp.Dst = dst
	sp.Size = pkt.Size
	// The endpoint reuses pkt.Hdr for its next packet; the simulated packet
	// carries its own copy for switches to stamp.
	sp.SetHeader(pkt.Hdr)
	sp.Data = pkt.Data
	sp.ECNCapable = true
	sp.Tenant = int(pkt.Hdr.TC)
	sp.FlowID = flow
	mh.Host.Send(sp)
}

// SetTimer implements core.Env.
func (mh *MTPHost) SetTimer(at time.Duration) {
	mh.timer.Stop()
	if at <= 0 {
		return
	}
	mh.timer = mh.eng.ScheduleArg(at-mh.eng.Now(), mtpHostTimer, mh, nil)
}

// mtpHostTimer is package-level so SetTimer allocates nothing per arm.
func mtpHostTimer(a1, _ any) {
	mh := a1.(*MTPHost)
	mh.EP.OnTimer(mh.eng.Now())
}
