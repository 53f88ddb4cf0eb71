package baseline

import (
	"testing"

	"mtp/internal/simnet"
)

func TestUDPConstantRate(t *testing.T) {
	eng, a, b := twoHosts(11,
		simnet.LinkConfig{Rate: 10e9, Delay: us(5), QueueCap: 1024},
		simnet.LinkConfig{Rate: 10e9, Delay: us(5), QueueCap: 1024},
	)
	rcv := NewUDPReceiver(eng, 1)
	b.SetHandler(rcv.OnPacket)
	snd := NewUDPSender(eng, a, 1, b.ID(), 1460, 1e9)
	snd.Start()
	eng.Run(ms(10))
	snd.Stop()
	gbps := float64(rcv.Bytes) * 8 / ms(10).Seconds() / 1e9
	if gbps < 0.9 || gbps > 1.05 {
		t.Fatalf("UDP goodput = %.3f Gbps, want ~1", gbps)
	}
	if rcv.Gaps != 0 {
		t.Fatalf("gaps = %d on a clean link", rcv.Gaps)
	}
}

func TestUDPOverloadDropsWithoutAdapting(t *testing.T) {
	// Offer 10 Gbps into a 1 Gbps link: UDP keeps blasting, ~90% is lost.
	eng, a, b := twoHosts(12,
		simnet.LinkConfig{Rate: 1e9, Delay: us(5), QueueCap: 64},
		simnet.LinkConfig{Rate: 1e9, Delay: us(5), QueueCap: 64},
	)
	rcv := NewUDPReceiver(eng, 1)
	b.SetHandler(rcv.OnPacket)
	snd := NewUDPSender(eng, a, 1, b.ID(), 1460, 10e9)
	snd.Start()
	eng.Run(ms(10))
	snd.Stop()
	lossFrac := 1 - float64(rcv.Received)/float64(snd.Sent)
	if lossFrac < 0.8 {
		t.Fatalf("loss fraction = %.2f, expected heavy loss without CC", lossFrac)
	}
	if rcv.Gaps == 0 {
		t.Fatal("no sequence gaps despite drops")
	}
}

// TestUDPSharesTrackOfferedLoad overloads one drop-tail link 2x from two
// senders offering 1:9. Neither adapts, so each should lose the same fraction
// and deliver in proportion to what it offers. With strictly periodic gaps
// the two phase-locked and the ratio was anywhere from 5x to 159x depending
// on the start offset.
func TestUDPSharesTrackOfferedLoad(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		link := simnet.LinkConfig{Rate: 10e9, Delay: us(1), QueueCap: 128}
		eng, a, b := twoHosts(seed, link, link)
		r1, r2 := NewUDPReceiver(eng, 1), NewUDPReceiver(eng, 2)
		b.SetHandler(func(pkt *simnet.Packet) {
			r1.OnPacket(pkt)
			r2.OnPacket(pkt)
		})
		NewUDPSender(eng, a, 1, b.ID(), 1460, 2e9).Start()
		NewUDPSender(eng, a, 2, b.ID(), 1460, 18e9).Start()
		eng.Run(ms(5))
		if ratio := float64(r2.Bytes) / float64(r1.Bytes); ratio < 6 || ratio > 13 {
			t.Errorf("seed %d: 9x the offered load took %.1fx the bandwidth, want 6x to 13x", seed, ratio)
		}
	}
}

func TestUDPRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewUDPSender(nil, nil, 1, 0, 0, 0)
}
