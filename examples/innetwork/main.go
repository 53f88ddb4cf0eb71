// In-network computing walkthrough: the paper's Figure 1 scenario on the
// simulator. A client issues KVS requests toward a backend service; on the
// way, a switch-resident cache answers hot keys directly, an L7 load
// balancer steers misses across three replicas, and every device stamps
// pathlet congestion feedback that the client's transport accumulates.
package main

import (
	"fmt"
	"time"

	"mtp/internal/core"
	"mtp/internal/offload"
	"mtp/internal/sim"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
)

func main() {
	eng := sim.NewEngine(42)
	net := simnet.NewNetwork(eng)

	// Topology: client - cacheSwitch - lbSwitch - {replica0,1,2}
	client := simnet.NewHost(net)
	cacheSw := simnet.NewSwitch(net, nil)
	lbSw := simnet.NewSwitch(net, nil)
	replicas := make([]*simnet.Host, 3)

	link := func(rate float64, delay time.Duration, pathlet uint32) simnet.LinkConfig {
		p := pathlet
		return simnet.LinkConfig{
			Rate: rate, Delay: delay, QueueCap: 512, ECNThreshold: 64,
			Pathlet: &p, StampECN: true,
		}
	}

	client.SetUplink(net.Connect(cacheSw, link(100e9, time.Microsecond, 1), "client->cache"))
	cacheSw.AddRoute(client.ID(), net.Connect(client, link(100e9, time.Microsecond, 1), "cache->client"))
	toLB := net.Connect(lbSw, link(100e9, time.Microsecond, 2), "cache->lb")
	lbSw.AddRoute(client.ID(), net.Connect(cacheSw, link(100e9, time.Microsecond, 2), "lb->cache"))

	for i := range replicas {
		replicas[i] = simnet.NewHost(net)
		// Deliberately different replica link speeds: distinct pathlets let
		// the client's transport learn each one separately.
		rate := []float64{40e9, 25e9, 10e9}[i]
		lbSw.AddRoute(replicas[i].ID(), net.Connect(replicas[i], link(rate, 2*time.Microsecond, uint32(10+i)), fmt.Sprintf("lb->r%d", i)))
		replicas[i].SetUplink(net.Connect(lbSw, link(rate, 2*time.Microsecond, uint32(10+i)), fmt.Sprintf("r%d->lb", i)))
	}

	// Service address: requests target the virtual backend; the LB switch
	// steers each message to a replica.
	vip := net.AllocID()
	cacheSw.AddRoute(vip, toLB)
	// Client ACKs for replica responses travel to the replicas themselves.
	for _, rh := range replicas {
		cacheSw.AddRoute(rh.ID(), toLB)
	}
	lb := offload.NewL7LB(lbSw, vip, []simnet.NodeID{replicas[0].ID(), replicas[1].ID(), replicas[2].ID()})
	cache := offload.NewCache(cacheSw, 128)

	// Replica applications: serve GETs from their stores.
	served := make([]int, len(replicas))
	for i, rh := range replicas {
		i, rh := i, rh
		var mh *simhost.MTPHost
		mh = simhost.AttachMTP(net, rh, core.Config{LocalPort: 7, OnMessage: func(m *core.InMessage) {
			op, key, _, ok := offload.DecodeKV(m.Data)
			if !ok || op != 1 { // GET
				return
			}
			served[i]++
			value := []byte(fmt.Sprintf("value-of-%s-from-replica-%d", key, i))
			mh.EP.Send(m.From, m.SrcPort, offload.EncodeResponse(key, value), core.SendOptions{})
		}})
	}

	// Client application: issue a skewed request stream (hot keys repeat).
	type pendingReq struct {
		key  string
		sent time.Duration
	}
	var rtts []time.Duration
	responses := 0
	c := simhost.AttachMTP(net, client, core.Config{LocalPort: 9, OnMessage: func(m *core.InMessage) {
		responses++
	}})
	keys := []string{"home", "home", "home", "trending", "home", "profile-123", "home", "trending",
		"home", "post-9", "home", "trending", "home", "home", "profile-77", "home"}
	for i, key := range keys {
		key := key
		at := time.Duration(i*20) * time.Microsecond
		eng.Schedule(at, func() {
			c.EP.Send(vip, 7, offload.EncodeGet(key), core.SendOptions{})
			rtts = append(rtts, at)
		})
	}

	eng.Run(50 * time.Millisecond)

	fmt.Println("=== In-network computing walkthrough (Figure 1 scenario) ===")
	fmt.Printf("requests issued:      %d\n", len(keys))
	fmt.Printf("responses delivered:  %d\n", responses)
	fmt.Printf("cache hits / misses:  %d / %d  (hot keys answered at the first switch)\n", cache.Hits, cache.Misses)
	fmt.Printf("replica GETs served:  r0=%d r1=%d r2=%d (via L7 LB)\n", served[0], served[1], served[2])
	total := uint64(0)
	for _, s := range lb.Steered {
		total += s
	}
	fmt.Printf("LB steering total:    %d messages kept atomic per replica\n", total)

	fmt.Println("\nclient pathlet table (learned from stamped feedback):")
	for _, st := range c.EP.Table().States() {
		fmt.Printf("  pathlet %-5v window=%7.0fB\n", st.Path, st.Algo.Window())
	}
}
