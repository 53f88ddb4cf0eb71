#!/usr/bin/env bash
# Paired benchmark runs: the working tree against a base commit, alternating.
#
#   [TRACED=K] ci/benchpair.sh "WORKLOAD..." [N=10] [BASE=HEAD~1] [SECONDS=28]
#
# Unpacks BASE (git archive) under .bench_build/ and, for each workload of the
# list in turn, runs `bash bench/run.sh --workload W --seconds SECONDS --seed i`
# in both trees N times, alternating which side goes first, and prints for
# every end-to-end metric both sides' medians and quartile distances, the
# median of the per-pair ratios change/base, and in how many pairs the change
# read higher or lower. This is the "ten alternating pairs" bench/README.md
# asks every perf change to bring: the claimed workload and, in the same
# command, the ones that must not move. SECONDS exists to smoke-test this
# script; a claim uses the default, which is what the driver runs.
#
# With TRACED=K in the environment each workload's table is followed by K more
# alternating pairs run with --trace 1 --seconds 6, and the per-layer cells
# that say where a change landed side by side: both medians, their ratio, and
# every reading. The real-path cells are timeouts, retransmissions, duplicates,
# NACKs, the engine's latency percentiles, CPU per message, timer lateness and
# the wheel's Schedule cost, context switches, scheduler latency, Node mutex
# wait, and packets and ACKs per message; the simulator's are its allocation
# (sim.alloc_MB, go.alloc_B_per_msg), GC share, wall time, the engine alone
# (sim.ns_per_event, sim.allocs_per_kevent), one hop (simnet.ns_per_hop),
# event throughput (sim.mev_per_s), each row's cost per event and their ratio
# (exp.mtp_over_dctcp_cost), the two-shard speedups, and the exact counts a
# behaviour-preserving change must leave alone (sim.events_mtp,
# sim.events_dctcp, exp.incast_mtp_retx, and the two-shard run's barrier
# rounds and crossings, which depend on NextEventAt: shard.rounds_2,
# shard.crossings_2, shard.dctcp_crossings_2). A cell the workload does not
# produce prints "-".
set -euo pipefail

wls=${1:?usage: ci/benchpair.sh '"WORKLOAD..." [N=10] [BASE=HEAD~1] [SECONDS=28]'}
n=${2:-10}
base=${3:-HEAD~1}
secs=${4:-28}
traced=${TRACED:-0}
traced_secs=6
cells="mtp.timeouts_per_kmsg mtp.retx_per_kmsg mtp.dup_rx_per_kmsg mtp.nacks_per_kmsg
	mtp.lat_p50_us mtp.lat_p99_us os.cpu_us_per_msg os.sys_cpu_frac
	udpnet.timer_late_us_p50 udpnet.timer_late_us_p99 udpnet.wheel_schedule_ns
	os.ctxsw_per_msg go.sched_lat_us_p99 mtp.mutex_wait_us_per_msg
	mtp.pkts_sent_per_msg mtp.acks_per_msg
	sim.alloc_MB go.alloc_B_per_msg go.gc_cpu_frac sim.wall_ms
	sim.ns_per_event sim.allocs_per_kevent simnet.ns_per_hop sim.mev_per_s
	simhost.mtp_ns_per_event baseline.dctcp_ns_per_event exp.mtp_over_dctcp_cost
	shard.speedup_2 shard.dctcp_speedup_2
	sim.events_mtp sim.events_dctcp exp.incast_mtp_retx
	shard.rounds_2 shard.crossings_2 shard.dctcp_crossings_2"

root=$(git rev-parse --show-toplevel)
work="$root/.bench_build/benchpair"
rm -rf "$work"
mkdir -p "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"
trap 'rm -rf "$work/base"' EXIT

# run SIDE WORKLOAD PAIR [traced]: one benchmark run; its result object (the
# last line of standard output) becomes "metric value" lines in
# $work/WORKLOAD.SIDE.PAIR, or $work/WORKLOAD.traced.SIDE.PAIR for a traced run.
run() {
	local tree=$root out="$work/$2.$1.$3" last
	local -a args=(--workload "$2" --seconds "$secs" --seed "$3")
	[[ $1 == base ]] && tree="$work/base"
	if [[ ${4:-} == traced ]]; then
		out="$work/$2.traced.$1.$3"
		args=(--workload "$2" --seconds "$traced_secs" --seed "$3" --trace 1)
	fi
	last=$(bash "$tree/bench/run.sh" "${args[@]}" | tail -n 1) ||
		{ echo "benchpair: $2 $1 ${4:-} run $3 failed: $last" >&2; exit 1; }
	case $last in
	*'"failed":0,'*) ;;
	*) echo "benchpair: $2 $1 ${4:-} run $3 had failures: $last" >&2; exit 1 ;;
	esac
	grep -o '"[A-Za-z0-9_.]*":{"value":[-+.eE0-9]*' <<<"$last" |
		sed 's/"\([^"]*\)":{"value":/\1 /' >"$out"
}

# pair WORKLOAD PAIR [traced]: one run on each side, base first in odd pairs.
pair() {
	if (($2 % 2)); then
		run base "$@"
		run change "$@"
	else
		run change "$@"
		run base "$@"
	fi
}

# quantile Q: the Q-quantile (linear interpolation) of the numbers on stdin.
quantile() {
	sort -g | awk -v q="$1" '{v[NR]=$1} END {
		if (!NR) exit; p = 1 + q * (NR - 1); lo = int(p); hi = lo < NR ? lo + 1 : lo
		print v[lo] + (p - lo) * (v[hi] - v[lo])}'
}
iqr() { local all; all=$(cat); echo "$(quantile 0.75 <<<"$all") $(quantile 0.25 <<<"$all")" | awk '{print $1 - $2}'; }

for wl in $wls; do
	for i in $(seq 1 "$n"); do
		pair "$wl" "$i"
		echo "$wl: pair $i/$n done" >&2
	done

	echo "$wl: $n pairs of $secs s, base $(git -C "$root" rev-parse --short "$base") against the working tree"
	printf '%-16s %12s %10s %12s %10s %12s %7s %6s\n' metric base_median base_iqr change_median change_iqr median_ratio higher lower
	for m in $(cut -d' ' -f1 "$work/$wl.base.1"); do
		side() { awk -v m="$m" '$1 == m {print $2}' "$work/$wl.$1".*; }
		ratios=$(for i in $(seq 1 "$n"); do
			awk -v m="$m" '$1 == m {print $2}' "$work/$wl.base.$i" "$work/$wl.change.$i" | paste -sd' ' -
		done | awk '{print $2 / $1}')
		printf '%-16s %12.6g %10.4g %12.6g %10.4g %12.4f %7d %6d\n' "$m" \
			"$(side base | quantile 0.5)" "$(side base | iqr)" \
			"$(side change | quantile 0.5)" "$(side change | iqr)" \
			"$(quantile 0.5 <<<"$ratios")" \
			"$(awk '$1 > 1' <<<"$ratios" | wc -l)" "$(awk '$1 < 1' <<<"$ratios" | wc -l)"
	done

	((traced)) || continue
	for i in $(seq 1 "$traced"); do
		pair "$wl" "$i" traced
		echo "$wl: traced pair $i/$traced done" >&2
	done
	echo "$wl: $traced traced pairs of $traced_secs s (--trace 1), per-layer cells"
	printf '%-26s %12s %12s %8s  %s\n' cell base_median change_median ratio 'readings: base | change'
	for m in $cells; do
		side() { awk -v m="$m" '$1 == m {print $2}' "$work/$wl.traced.$1".*; }
		if [[ -z $(side base) || -z $(side change) ]]; then
			printf '%-26s %12s %12s %8s\n' "$m" - - -
			continue
		fi
		b=$(side base | quantile 0.5) c=$(side change | quantile 0.5)
		printf '%-26s %12.6g %12.6g %8s  %s | %s\n' "$m" "$b" "$c" \
			"$(awk -v b="$b" -v c="$c" 'BEGIN {if (b != 0) printf "%.3f", c / b; else print "-"}')" \
			"$(side base | xargs printf '%.5g ')" "$(side change | xargs printf '%.5g ')"
	done
done
