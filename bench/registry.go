package main

// The registry is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with the
// end-to-end cell each is expected to move. BENCHMARK.json at the repository
// root lists the same names (bench_test.go fails on any drift); later changes
// refer to them by exactly these names.

type workloadDef struct {
	Name string
	Why  string
	// Gated workloads are the ones BENCHMARK.json lists: the driver runs them
	// and holds their end-to-end cells to the bounds. The driver's time limit
	// covers all its runs together, and on this class of host a run shorter
	// than about half a minute spreads wider than any bound allowed, so only
	// four workloads fit. The other two run with everything else under a plain
	// `bash bench/run.sh` and under -workload; their shapes are also rungs of
	// the traced ladder, which every traced run reports.
	Gated bool
	// Net is the load shape for the five socket/memnet workloads; nil for
	// sim_incast.
	Net *netSpec
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated relative worsening of the median
	// Moves names, for a per-layer metric, the end-to-end cell it should
	// move (metric@workload); "floor" rungs move nothing and exist so the
	// rung-to-rung deltas add up.
	Moves string
}

var workloads = []workloadDef{
	{
		Name: "rpc_pingpong_udp",
		Why:  "64 B ServeRPC echo + Call, W=1, UDP loopback: unloaded latency of the whole stack used both ways; fixed per-message cost, goroutine wake-ups and rpc.go, not batching",
		Net:  &netSpec{ID: 1, Size: 64 * Byte, W: 1, RPC: true, Warmup: 3000},
	},
	{
		Name:  "small_udp",
		Why:   "512 B one-way Send to Done, W=16, UDP loopback: small-message rate; udpnet mmsg batching, the Node mutex shared by reader and 16 senders, wire codec, one packet per message",
		Net:   &netSpec{ID: 2, Size: 512 * Byte, W: 16, Warmup: 8000},
		Gated: true,
	},
	{
		Name: "small_mem",
		Why:  "512 B one-way, W=16, over mtp.NewMemNetwork: bypasses udpnet and the kernel (legacy readLoop + time.AfterFunc path); a udpnet or syscall change must not move it, a core or Node change must",
		Net:  &netSpec{ID: 3, Size: 512 * Byte, W: 16, Mem: true, Warmup: 20000},
	},
	{
		Name:  "bulk_udp",
		Why:   "64 KB one-way (55 packets at MSS 1200), W=4, UDP loopback: per-packet cost dominates; packetisation, reassembly copy, SACK processing, cwnd, sendmmsg batch size; where GSO or ACK thinning can pay",
		Net:   &netSpec{ID: 4, Size: 64 * KiB, W: 4, Warmup: 400},
		Gated: true,
	},
	{
		Name:  "lossy_udp",
		Why:   "4 KB one-way (4 packets), W=16, both sockets behind udpnet.NewLossy (drop 2%, dup 1%, reorder 2%), 20 ms RTO: NACK/RTO recovery, dedup floors, the timer wheel and udpnet's connIO fallback",
		Net:   &netSpec{ID: 5, Size: 4 * KiB, W: 16, Lossy: true, Warmup: 400},
		Gated: true,
	},
	{
		Name:  "sim_incast",
		Why:   "exp.RunScale k=8 fat-tree 32-to-1 incast of 1 MB messages (128 hosts, 1.86 M MTP events), golden-checked: the simulator user's wait, no sockets and no goroutines",
		Gated: true,
	},
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them (for sim_incast a "message" is one simulated 1 MB message and
// the latency is the host time of one MTP run).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "goodput_MBps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_msg", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "live_heap_MB", Unit: "MB", Better: "lower", Bound: 0.25},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func init() {
	for i := range workloads {
		if workloads[i].Net != nil {
			workloads[i].Net.Name = workloads[i].Name
		}
	}
}

// perLayer lists the single-layer metrics, layer = module name. They carry no
// bound: they explain a movement of an end-to-end cell, they do not gate.
// Metrics marked [wl] in README.md are read from the workload's own run
// (Node.Stats, getrusage, runtime/metrics); the rest come from the ladder and
// read the same whatever the workload.
var perLayer = []metricDef{
	// wire
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower", Moves: "msgs_per_s@bulk_udp (x110 packets+ACKs per message); <2% of small_udp"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower", Moves: "msgs_per_s@bulk_udp"},
	{Name: "wire.ack_codec_ns", Unit: "ns", Better: "lower", Moves: "msgs_per_s@bulk_udp"},
	{Name: "wire.data_hdr_B", Unit: "B", Better: "lower", Moves: "goodput_MBps@bulk_udp"},
	{Name: "wire.allocs_per_pkt", Unit: "count", Better: "lower", Moves: "allocs_per_msg@bulk_udp"},
	// cc / pathlet
	{Name: "cc.dctcp_onack_ns", Unit: "ns", Better: "lower", Moves: "msgs_per_s@bulk_udp (via os.cpu_us_per_msg), sim.wall_ms"},
	{Name: "pathlet.onack_ns", Unit: "ns", Better: "lower", Moves: "msgs_per_s@bulk_udp (via os.cpu_us_per_msg), sim.wall_ms"},
	{Name: "pathlet.allocs_per_ack", Unit: "count", Better: "lower", Moves: "allocs_per_msg@bulk_udp"},
	// core on the null Env
	{Name: "core.ns_per_msg_64B", Unit: "ns", Better: "lower", Moves: "lat_p95_us@rpc_pingpong_udp"},
	{Name: "core.ns_per_msg_512B", Unit: "ns", Better: "lower", Moves: "msgs_per_s@small_mem and small_udp"},
	{Name: "core.ns_per_msg_4KB", Unit: "ns", Better: "lower", Moves: "msgs_per_s@lossy_udp"},
	{Name: "core.ns_per_msg_64KB", Unit: "ns", Better: "lower", Moves: "msgs_per_s@bulk_udp"},
	{Name: "core.ns_per_pkt_64KB", Unit: "ns", Better: "lower", Moves: "msgs_per_s@bulk_udp, sim.wall_ms"},
	{Name: "core.allocs_per_msg_512B", Unit: "count", Better: "lower", Moves: "allocs_per_msg@small_mem and small_udp"},
	{Name: "core.allocs_per_msg_64KB", Unit: "count", Better: "lower", Moves: "allocs_per_msg@bulk_udp"},
	{Name: "core.pkts_per_msg_512B", Unit: "count", Better: "lower", Moves: "msgs_per_s@small_udp"},
	{Name: "core.acks_per_data_pkt_64KB", Unit: "count", Better: "lower", Moves: "msgs_per_s@bulk_udp (ACK thinning)"},
	{Name: "core.send_self_ns", Unit: "ns", Better: "lower", Moves: "msgs_per_s@small_mem and small_udp"},
	{Name: "core.on_data_self_ns", Unit: "ns", Better: "lower", Moves: "msgs_per_s@bulk_udp"},
	{Name: "core.on_ack_self_ns", Unit: "ns", Better: "lower", Moves: "msgs_per_s@bulk_udp"},
	{Name: "core.on_timer_self_ns", Unit: "ns", Better: "lower", Moves: "msgs_per_s@lossy_udp"},
	{Name: "core.retx_per_kpkt_loss2", Unit: "count", Better: "lower", Moves: "msgs_per_s+goodput_MBps@lossy_udp"},
	{Name: "core.spurious_retx_frac_loss2", Unit: "frac", Better: "lower", Moves: "goodput_MBps@lossy_udp (wasted work)"},
	{Name: "core.nacks_per_kmsg_loss2", Unit: "count", Better: "lower", Moves: "msgs_per_s@lossy_udp"},
	{Name: "core.timeouts_per_kmsg_loss2", Unit: "count", Better: "lower", Moves: "lat_p95_us@lossy_udp"},
	// mtp: Node, memnet, rpc
	{Name: "memnet.ns_per_dgram", Unit: "ns", Better: "lower", Moves: "floor"},
	{Name: "mtp.node_overhead_ns_512B", Unit: "ns", Better: "lower", Moves: "msgs_per_s@small_mem and small_udp"},
	{Name: "mtp.send_call_ns_p50", Unit: "ns", Better: "lower", Moves: "msgs_per_s@small_mem and small_udp (lock wait + packetise + first transmit)"},
	{Name: "mtp.deliver_us_p50", Unit: "us", Better: "lower", Moves: "lat_p95_us@small_mem"},
	{Name: "mtp.ack_return_us_p50", Unit: "us", Better: "lower", Moves: "lat_p95_us@small_mem"},
	{Name: "rpc.request_leg_us_p50", Unit: "us", Better: "lower", Moves: "lat_p95_us@rpc_pingpong_udp"},
	{Name: "rpc.response_leg_us_p50", Unit: "us", Better: "lower", Moves: "lat_p95_us@rpc_pingpong_udp"},
	{Name: "trace.ring_overhead_frac", Unit: "frac", Better: "lower", Moves: "msgs_per_s@small_mem with Config.TraceEvents set"},
	{Name: "mtp.pkts_sent_per_msg", Unit: "count", Better: "lower", Moves: "[wl] msgs_per_s"},
	{Name: "mtp.acks_per_msg", Unit: "count", Better: "lower", Moves: "[wl] msgs_per_s@bulk_udp"},
	{Name: "mtp.retx_per_kmsg", Unit: "count", Better: "lower", Moves: "[wl] msgs_per_s+goodput_MBps@lossy_udp; 0 elsewhere"},
	{Name: "mtp.dup_rx_per_kmsg", Unit: "count", Better: "lower", Moves: "[wl] goodput_MBps@lossy_udp"},
	{Name: "mtp.nacks_per_kmsg", Unit: "count", Better: "lower", Moves: "[wl] msgs_per_s@lossy_udp"},
	{Name: "mtp.timeouts_per_kmsg", Unit: "count", Better: "lower", Moves: "[wl] lat_p95_us@lossy_udp"},
	{Name: "mtp.ring_full_drops", Unit: "count", Better: "lower", Moves: "[wl] msgs_per_s@bulk_udp"},
	{Name: "mtp.lat_p50_us", Unit: "us", Better: "lower", Moves: "[wl] lat_p95_us; sits between two modes on small_mem (inline vs queued delivery) and lossy_udp (clean vs recovered)"},
	{Name: "mtp.lat_p99_us", Unit: "us", Better: "lower", Moves: "[wl] tail of lat_p95_us; RTO- and scheduler-dominated on bulk_udp and lossy_udp"},
	{Name: "mtp.mutex_wait_us_per_msg", Unit: "us", Better: "lower", Moves: "[wl] msgs_per_s@small_mem and small_udp"},
	// udpnet
	{Name: "udpnet.ns_per_pkt_burst", Unit: "ns", Better: "lower", Moves: "msgs_per_s@small_udp and bulk_udp; never small_mem or sim_incast"},
	{Name: "udpnet.rtt_us_p50", Unit: "us", Better: "lower", Moves: "lat_p95_us@rpc_pingpong_udp"},
	{Name: "udpnet.dgrams_per_syscall_out", Unit: "count", Better: "higher", Moves: "msgs_per_s@bulk_udp (via os.cpu_us_per_msg)"},
	{Name: "udpnet.dgrams_per_syscall_in", Unit: "count", Better: "higher", Moves: "msgs_per_s@bulk_udp (via os.cpu_us_per_msg)"},
	{Name: "udpnet.allocs_per_pkt", Unit: "count", Better: "lower", Moves: "allocs_per_msg@small_udp and bulk_udp"},
	{Name: "udpnet.ring_full_drops", Unit: "count", Better: "lower", Moves: "msgs_per_s@bulk_udp"},
	{Name: "udpnet.connio_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "msgs_per_s@lossy_udp"},
	{Name: "udpnet.wheel_schedule_ns", Unit: "ns", Better: "lower", Moves: "msgs_per_s@small_udp (via os.cpu_us_per_msg)"},
	{Name: "udpnet.timer_late_us_p50", Unit: "us", Better: "lower", Moves: "lat_p95_us@lossy_udp"},
	{Name: "udpnet.timer_late_us_p99", Unit: "us", Better: "lower", Moves: "mtp.lat_p99_us@lossy_udp"},
	// os / go: floors and noise gauges
	{Name: "os.spin_us_p50", Unit: "us", Better: "lower", Moves: "noise gauge: a fixed CPU loop; every time-based cell moves with it"},
	{Name: "os.udp_rtt_us_p50", Unit: "us", Better: "lower", Moves: "floor under lat_p95_us@rpc_pingpong_udp"},
	{Name: "os.udp_ns_per_dgram", Unit: "ns", Better: "lower", Moves: "floor"},
	{Name: "os.cpu_us_per_msg", Unit: "us", Better: "lower", Moves: "[wl] process user+sys CPU (getrusage) per message; msgs_per_s where both cores are busy (small_udp, small_mem, bulk_udp)"},
	{Name: "os.sys_cpu_frac", Unit: "frac", Better: "lower", Moves: "[wl] decides whether GSO is worth building (small_udp, bulk_udp)"},
	{Name: "os.ctxsw_per_msg", Unit: "count", Better: "lower", Moves: "[wl] lat_p95_us@rpc_pingpong_udp"},
	{Name: "os.sockets_open", Unit: "count", Better: "lower", Moves: "[wl] 0 on small_mem and sim_incast: the bypass prediction"},
	{Name: "go.gc_cpu_frac", Unit: "frac", Better: "lower", Moves: "[wl] how allocs_per_msg turns into os.cpu_us_per_msg"},
	{Name: "go.alloc_B_per_msg", Unit: "B", Better: "lower", Moves: "[wl] go.gc_cpu_frac"},
	{Name: "go.sched_lat_us_p99", Unit: "us", Better: "lower", Moves: "[wl] how long runnable goroutines wait; depends on the workload it is read under"},
	// sim / simnet / topo
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Moves: "sim.wall_ms, lat_p95_us@sim_incast"},
	{Name: "sim.allocs_per_kevent", Unit: "count", Better: "lower", Moves: "allocs_per_msg@sim_incast"},
	{Name: "simnet.ns_per_hop", Unit: "ns", Better: "lower", Moves: "sim.wall_ms"},
	{Name: "simnet.events_per_hop", Unit: "count", Better: "lower", Moves: "sim.wall_ms"},
	{Name: "topo.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s@sim_incast"},
	// simhost / baseline / exp / shard / check
	{Name: "sim.wall_ms", Unit: "ms", Better: "lower", Moves: "lat_p95_us+msgs_per_s@sim_incast (host ms of the MTP row of one run)"},
	{Name: "sim.alloc_MB", Unit: "MB", Better: "lower", Moves: "allocs_per_msg@sim_incast (TotalAlloc per RunScale call)"},
	{Name: "simhost.mtp_ns_per_event", Unit: "ns", Better: "lower", Moves: "sim.wall_ms"},
	{Name: "baseline.dctcp_ns_per_event", Unit: "ns", Better: "lower", Moves: "control: same fabric, no MTP"},
	{Name: "exp.mtp_over_dctcp_cost", Unit: "ratio", Better: "lower", Moves: "sim.wall_ms"},
	{Name: "sim.endpoint_share", Unit: "frac", Better: "lower", Moves: "sim.wall_ms"},
	{Name: "sim.mev_per_s", Unit: "M/s", Better: "higher", Moves: "sim.wall_ms"},
	{Name: "sim.events_mtp", Unit: "count", Better: "lower", Moves: "exact; a speed change must leave it identical"},
	{Name: "sim.events_dctcp", Unit: "count", Better: "lower", Moves: "exact"},
	{Name: "shard.rounds_2", Unit: "count", Better: "lower", Moves: "exact; shard.speedup_2"},
	{Name: "shard.crossings_2", Unit: "count", Better: "lower", Moves: "exact; shard.speedup_2"},
	{Name: "shard.dctcp_crossings_2", Unit: "count", Better: "lower", Moves: "exact"},
	{Name: "shard.speedup_2", Unit: "ratio", Better: "higher", Moves: "sim.wall_ms with Shards:2"},
	{Name: "shard.dctcp_speedup_2", Unit: "ratio", Better: "higher", Moves: "control"},
	{Name: "check.overhead_frac", Unit: "frac", Better: "lower", Moves: "sim.wall_ms with Check:true"},
	{Name: "exp.incast_mtp_p99_us", Unit: "us", Better: "lower", Moves: "fidelity anchor, exact"},
	{Name: "exp.incast_mtp_retx", Unit: "count", Better: "lower", Moves: "fidelity anchor, exact"},
	{Name: "exp.fig5_mtp_gbps", Unit: "Gbps", Better: "higher", Moves: "fidelity anchor, exact, golden-checked"},
	{Name: "exp.fig5_improvement_pct", Unit: "%", Better: "higher", Moves: "fidelity anchor, exact, golden-checked"},
	// the benchmark itself
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower", Moves: "[wl] untraced vs shimmed msgs_per_s"},
	{Name: "bench.span_closure_err", Unit: "frac", Better: "lower", Moves: "worst gap between a root span and the self times of its tree"},
	{Name: "bench.fail_frac", Unit: "frac", Better: "lower", Moves: "[wl] must be 0"},
}

var perLayerByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()
