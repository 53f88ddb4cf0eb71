package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mtp/internal/core"
	"mtp/internal/offload"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
	"mtp/internal/stats"
	"mtp/internal/workload"
)

// Fig1Config parameterizes the quantified version of the paper's motivating
// Figure 1: clients issue Zipf-distributed KVS GETs toward a service; the
// experiment ablates the in-network cache and the L7 load balancer and
// measures request latency and backend load.
type Fig1Config struct {
	Requests int // per client, default 300
	Seed     int64
}

const (
	fig1Clients  = 4
	fig1Replicas = 3
	fig1Keys     = 1000
	fig1ZipfS    = 1.25
	fig1Gap      = 20 * time.Microsecond // per-client request gap
	// fig1ReplicaDelay models backend service time per request.
	fig1ReplicaDelay = 10 * time.Microsecond
	fig1CacheSize    = 64 // hot-key capacity
)

func (c Fig1Config) withDefaults() Fig1Config {
	if c.Requests == 0 {
		c.Requests = 300
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig1Row is one system configuration's measurements.
type Fig1Row struct {
	System      string
	Completed   int
	P50us       float64
	P99us       float64
	BackendGets uint64
	CacheHits   uint64
	HitRate     float64
}

// Fig1Result holds the ablation rows.
type Fig1Result struct {
	Config Fig1Config
	Rows   []Fig1Row
}

// RunFig1 measures three systems: single backend (no offloads), +L7 load
// balancer, and +in-network cache.
func RunFig1(cfg Fig1Config) Fig1Result {
	cfg = cfg.withDefaults()
	return Fig1Result{Config: cfg, Rows: []Fig1Row{
		runFig1(cfg, false, false),
		runFig1(cfg, true, false),
		runFig1(cfg, true, true),
	}}
}

func runFig1(cfg Fig1Config, lb, cache bool) Fig1Row {
	rig := newRig(cfg.Seed)
	eng, net := rig.eng, rig.net
	cacheSw := simnet.NewSwitch(net, nil)
	lbSw := simnet.NewSwitch(net, nil)

	lc := simnet.LinkConfig{Rate: 25e9, Delay: 2 * time.Microsecond, QueueCap: 1024, ECNThreshold: 128}

	// Clients hang off the cache switch.
	clients := make([]*simnet.Host, fig1Clients)
	for i := range clients {
		clients[i] = rig.attach(cacheSw, lc, lc)
	}
	// Replicas hang off the LB switch.
	nRep := fig1Replicas
	if !lb {
		nRep = 1
	}
	replicas := make([]*simnet.Host, nRep)
	toLB := net.Connect(lbSw, lc, "cache->lb")
	lbToCache := net.Connect(cacheSw, lc, "lb->cache")
	for _, c := range clients {
		lbSw.AddRoute(c.ID(), lbToCache)
	}
	for i := range replicas {
		replicas[i] = rig.attach(lbSw, lc, lc)
		cacheSw.AddRoute(replicas[i].ID(), toLB)
	}

	// Service address.
	vip := net.AllocID()
	cacheSw.AddRoute(vip, toLB)
	if lb {
		ids := make([]simnet.NodeID, len(replicas))
		for i, r := range replicas {
			ids[i] = r.ID()
		}
		offload.NewL7LB(lbSw, vip, ids)
	} else {
		lbSw.AddRoute(vip, lbSw.Routes(replicas[0].ID())[0]) // the one backend's downlink
	}
	var cacheDev *offload.Cache
	if cache {
		cacheDev = offload.NewCache(cacheSw, fig1CacheSize)
	}

	// Replica apps: a single-server queue per replica — requests are served
	// one at a time, each taking fig1ReplicaDelay (so an overloaded backend
	// builds real queueing delay, which is what the LB relieves).
	var backendGets uint64
	for _, rh := range replicas {
		var busyUntil time.Duration
		var mh *simhost.MTPHost
		mh = simhost.AttachMTP(net, rh, core.Config{LocalPort: 7, OnMessage: func(m *core.InMessage) {
			op, key, _, ok := offload.DecodeKV(m.Data)
			if !ok || op != 1 {
				return
			}
			backendGets++
			from, port := m.From, m.SrcPort
			start := eng.Now()
			if busyUntil > start {
				start = busyUntil
			}
			busyUntil = start + fig1ReplicaDelay
			eng.ScheduleAt(busyUntil, func() {
				mh.EP.Send(from, port, offload.EncodeResponse(key, []byte("v")), core.SendOptions{})
			})
		}})
	}

	// Clients: closed-ish loop with a fixed gap; latency measured per
	// request via a tag in the key (key index + sequence).
	var lats []float64
	completed := 0
	r := rand.New(rand.NewSource(cfg.Seed))
	zipf := workload.NewZipf(r, fig1ZipfS, fig1Keys)
	type pending struct{ at time.Duration }
	for ci, ch := range clients {
		outstanding := make(map[string]pending)
		var mh *simhost.MTPHost
		mh = simhost.AttachMTP(net, ch, core.Config{LocalPort: uint16(50 + ci), OnMessage: func(m *core.InMessage) {
			op, key, _, ok := offload.DecodeKV(m.Data)
			if !ok || op != 3 {
				return
			}
			completed++
			// Latency is sampled only for uniquely-matched keys: a key with
			// two requests in flight is ambiguous since responses carry the
			// key, not a request ID.
			if p, ok := outstanding[key]; ok {
				delete(outstanding, key)
				lats = append(lats, float64((eng.Now() - p.at).Microseconds()))
			}
		}})
		for q := 0; q < cfg.Requests; q++ {
			key := fmt.Sprintf("key-%d", zipf.Next())
			at := time.Duration(q) * fig1Gap
			eng.Schedule(at, func() {
				// A repeated in-flight key re-arms the timestamp; slight
				// undercount of latency for duplicates is acceptable.
				outstanding[key] = pending{at: eng.Now()}
				mh.EP.Send(vip, 7, offload.EncodeGet(key), core.SendOptions{})
			})
		}
	}
	eng.Run(200 * time.Millisecond)

	row := Fig1Row{
		Completed:   completed,
		P50us:       stats.Percentile(lats, 50),
		P99us:       stats.Percentile(lats, 99),
		BackendGets: backendGets,
	}
	switch {
	case cache && lb:
		row.System = "cache + L7 LB"
	case lb:
		row.System = "L7 LB only"
	default:
		row.System = "single backend"
	}
	if cacheDev != nil {
		row.CacheHits = cacheDev.Hits
		total := cacheDev.Hits + cacheDev.Misses
		if total > 0 {
			row.HitRate = float64(cacheDev.Hits) / float64(total)
		}
	}
	return row
}

// String renders the ablation.
func (r Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 (quantified): %d clients, Zipf(%.2f) over %d keys, %d reqs/client\n",
		fig1Clients, fig1ZipfS, fig1Keys, r.Config.Requests)
	fmt.Fprintf(&b, "  %-16s %10s %10s %10s %12s %10s\n", "system", "completed", "p50(us)", "p99(us)", "backend gets", "hit rate")
	for _, row := range r.Rows {
		hit := "-"
		if row.CacheHits > 0 {
			hit = fmt.Sprintf("%.0f%%", row.HitRate*100)
		}
		fmt.Fprintf(&b, "  %-16s %10d %10.0f %10.0f %12d %10s\n",
			row.System, row.Completed, row.P50us, row.P99us, row.BackendGets, hit)
	}
	return b.String()
}
