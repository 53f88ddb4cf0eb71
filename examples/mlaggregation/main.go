// In-network ML gradient aggregation (ATP-style): N workers send per-round
// gradient vectors toward a parameter server; a switch sums the vectors and
// forwards one aggregated message per round, acknowledging workers itself.
// Message independence and per-packet message metadata are what make the
// switch's job bounded-state — the paper's ATP discussion.
//
// With -crash the aggregator switch dies mid-training and the demo shows the
// fault-tolerance stack recovering: the switch's ACKs are delegated (the
// device vouches, not the server), workers keep every round resendable until
// the server's result broadcast confirms it end to end, and a host-side
// fallback aggregator completes crash-orphaned rounds from raw bypass
// retransmissions — every contribution counted exactly once.
package main

import (
	"flag"
	"fmt"
	"time"

	"mtp/internal/core"
	"mtp/internal/fault"
	"mtp/internal/offload"
	"mtp/internal/sim"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
)

func main() {
	workers := flag.Int("workers", 4, "number of workers")
	rounds := flag.Int("rounds", 10, "training rounds")
	dims := flag.Int("dims", 64, "gradient vector length")
	crash := flag.Bool("crash", false, "crash the aggregator switch mid-training; recover via delegated ACKs + host-side fallback")
	flag.Parse()

	eng := sim.NewEngine(7)
	net := simnet.NewNetwork(eng)
	sw := simnet.NewSwitch(net, nil)
	ps := simnet.NewHost(net)
	ps.SetUplink(net.Connect(sw, simnet.LinkConfig{Rate: 100e9, Delay: time.Microsecond, QueueCap: 1024}, "ps->sw"))
	sw.AddRoute(ps.ID(), net.Connect(ps, simnet.LinkConfig{Rate: 100e9, Delay: time.Microsecond, QueueCap: 1024}, "sw->ps"))

	agg := offload.NewAggregator(sw, ps.ID(), *workers)

	var psagg *offload.PSAggregator
	if *crash {
		// Tagged aggregates carry the contributor set, which is what lets the
		// host-side fallback merge in-network and raw contributions without
		// double-counting; the round timeout flushes partial sums instead of
		// wedging on contributions the crash destroyed.
		agg.EmitContributors = true
		agg.SetRoundTimeout(2 * time.Millisecond)
		psagg = offload.NewPSAggregator(*workers)
	}

	// Parameter server: applies each aggregate as it arrives.
	model := make([]int64, *dims)
	applied := 0
	var psh *simhost.MTPHost
	psh = simhost.AttachMTP(net, ps, core.Config{LocalPort: 5, OnMessage: func(m *core.InMessage) {
		if *crash {
			from, _ := m.From.(simnet.NodeID)
			psagg.Ingest(from, m.Data)
			return
		}
		round, vec, ok := offload.DecodeGradient(m.Data)
		if !ok {
			return
		}
		for i, v := range vec {
			model[i] += v
		}
		applied++
		if round%5 == 0 {
			fmt.Printf("  round %2d aggregated: model[0]=%d\n", round, model[0])
		}
	}})

	// Workers: one gradient message per round, staggered.
	hosts := make([]*simhost.MTPHost, *workers)
	hostIDs := make([]simnet.NodeID, *workers)
	pending := make([]map[uint64]*core.OutMessage, *workers)
	for w := 0; w < *workers; w++ {
		w := w
		h := simnet.NewHost(net)
		hostIDs[w] = h.ID()
		h.SetUplink(net.Connect(sw, simnet.LinkConfig{Rate: 25e9, Delay: 2 * time.Microsecond, QueueCap: 512}, "w->sw"))
		sw.AddRoute(h.ID(), net.Connect(h, simnet.LinkConfig{Rate: 25e9, Delay: 2 * time.Microsecond, QueueCap: 512}, "sw->w"))
		cfg := core.Config{LocalPort: uint16(20 + w)}
		if *crash {
			pending[w] = make(map[uint64]*core.OutMessage)
			cfg.RTO = 500 * time.Microsecond
			cfg.MinRTO = 125 * time.Microsecond
			cfg.MaxRTO = 4 * time.Millisecond
			cfg.DelegateTimeout = 1500 * time.Microsecond
			// The server's result broadcast is the end-to-end confirmation
			// that releases a delegated (switch-acked) contribution.
			cfg.OnMessage = func(m *core.InMessage) {
				round, _, ok := offload.DecodeResult(m.Data)
				if !ok {
					return
				}
				if p := pending[w][round]; p != nil {
					hosts[w].EP.Release(p)
					delete(pending[w], round)
				}
			}
		}
		hosts[w] = simhost.AttachMTP(net, h, cfg)
	}

	if *crash {
		psagg.OnRound = func(round uint64, sum []int64) {
			for i, v := range sum {
				model[i] += v
			}
			applied++
			if round%5 == 0 {
				fmt.Printf("  round %2d aggregated: model[0]=%d\n", round, model[0])
			}
			payload := offload.EncodeResult(round, sum)
			for i, id := range hostIDs {
				psh.EP.Send(id, uint16(20+i), append([]byte(nil), payload...), core.SendOptions{})
			}
		}
	}

	for round := 1; round <= *rounds; round++ {
		for w, mh := range hosts {
			w, mh, round := w, mh, round
			at := time.Duration(round*50+w*3) * time.Microsecond
			eng.Schedule(at, func() {
				vec := make([]int64, *dims)
				for i := range vec {
					vec[i] = int64(w + 1) // deterministic "gradient"
				}
				m := mh.EP.Send(ps.ID(), 5, offload.EncodeGradient(uint64(round), vec), core.SendOptions{})
				if *crash {
					pending[w][uint64(round)] = m
				}
			})
		}
	}

	var inj *fault.Injector
	if *crash {
		// The crash lands mid-training: rounds in flight lose their
		// in-network partial sums and the switch's interposer state.
		inj = fault.NewInjector(eng, 7)
		inj.CrashSwitch(sw, 160*time.Microsecond, 300*time.Microsecond)
	}

	eng.Run(100 * time.Millisecond)

	// sum over workers of (w+1) per round = W(W+1)/2 per dimension.
	perRound := int64(*workers * (*workers + 1) / 2)
	fmt.Printf("\nworkers=%d rounds=%d dims=%d\n", *workers, *rounds, *dims)
	fmt.Printf("aggregates applied at PS:   %d (one per round)\n", applied)
	fmt.Printf("worker messages consumed:   %d (never reached the PS link)\n", agg.Consumed)
	if !*crash {
		fmt.Printf("fan-in reduction:           %dx\n", agg.Consumed/uint64(applied))
	} else {
		var delegated, timeouts, released uint64
		for _, mh := range hosts {
			delegated += mh.EP.Stats.DelegatedAcks
			timeouts += mh.EP.Stats.DelegateTimeouts
			released += mh.EP.Stats.MsgsReleased
		}
		fmt.Printf("delegated ACKs:             %d (%d reverted to bypass retransmissions)\n", delegated, timeouts)
		fmt.Printf("end-to-end releases:        %d\n", released)
		fmt.Printf("device crash resets:        %d\n", agg.Resets)
		fmt.Printf("fallback raw contributions: %d (in-network aggregates: %d)\n",
			psagg.RawContribs, psagg.Aggregates)
		for _, ev := range inj.Events() {
			fmt.Printf("  fault: %s\n", ev)
		}
	}
	fmt.Printf("model[0] = %d (expect rounds × W(W+1)/2 = %d)\n", model[0], int64(*rounds)*perRound)
	if model[0] != int64(*rounds)*perRound {
		fmt.Println("MISMATCH — aggregation corrupted")
	}
}
