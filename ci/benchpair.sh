#!/usr/bin/env bash
# Paired benchmark runs: the working tree against a base commit, alternating.
#
#   ci/benchpair.sh "WORKLOAD..." [N=10] [BASE=HEAD~1] [SECONDS=28]
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
set -euo pipefail

wls=${1:?usage: ci/benchpair.sh '"WORKLOAD..." [N=10] [BASE=HEAD~1] [SECONDS=28]'}
n=${2:-10}
base=${3:-HEAD~1}
secs=${4:-28}

root=$(git rev-parse --show-toplevel)
work="$root/.bench_build/benchpair"
rm -rf "$work"
mkdir -p "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"
trap 'rm -rf "$work/base"' EXIT

# run TREE SIDE WORKLOAD PAIR: one benchmark run; its result object (the last
# line of standard output) becomes "metric value" lines in $work/WORKLOAD.SIDE.PAIR.
run() {
	local last
	last=$(bash "$1/bench/run.sh" --workload "$3" --seconds "$secs" --seed "$4" | tail -n 1) ||
		{ echo "benchpair: $3 $2 run $4 failed: $last" >&2; exit 1; }
	case $last in
	*'"failed":0,'*) ;;
	*) echo "benchpair: $3 $2 run $4 had failures: $last" >&2; exit 1 ;;
	esac
	grep -o '"[A-Za-z0-9_.]*":{"value":[-+.eE0-9]*' <<<"$last" |
		sed 's/"\([^"]*\)":{"value":/\1 /' >"$work/$3.$2.$4"
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
		if ((i % 2)); then
			run "$work/base" base "$wl" "$i"
			run "$root" change "$wl" "$i"
		else
			run "$root" change "$wl" "$i"
			run "$work/base" base "$wl" "$i"
		fi
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
done
