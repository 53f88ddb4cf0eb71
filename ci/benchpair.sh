#!/usr/bin/env bash
# Paired benchmark runs: the working tree against a base commit, alternating.
#
#   ci/benchpair.sh WORKLOAD [N=10] [BASE=HEAD~1] [SECONDS=28]
#
# Checks BASE out into a git worktree under .bench_build/, runs
# `bash bench/run.sh --workload WORKLOAD --seconds SECONDS --seed i` in both
# trees N times, alternating which side goes first, and prints for every
# end-to-end metric both sides' medians, the median of the per-pair ratios
# change/base, and in how many pairs the change read higher or lower. This is
# the "ten alternating pairs" bench/README.md asks every perf change to bring.
# SECONDS exists to smoke-test this script; a claim uses the default, which
# is what the driver runs.
set -euo pipefail

wl=${1:?usage: ci/benchpair.sh WORKLOAD [N=10] [BASE=HEAD~1] [SECONDS=28]}
n=${2:-10}
base=${3:-HEAD~1}
secs=${4:-28}

root=$(git rev-parse --show-toplevel)
work="$root/.bench_build/benchpair"
git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
rm -rf "$work"
mkdir -p "$work"
git -C "$root" worktree add --detach "$work/base" "$base" >/dev/null
trap 'git -C "$root" worktree remove --force "$work/base"' EXIT

# run TREE SIDE PAIR: one benchmark run; its result object (the last line of
# standard output) becomes "metric value" lines in $work/SIDE.PAIR.
run() {
	local last
	last=$(bash "$1/bench/run.sh" --workload "$wl" --seconds "$secs" --seed "$3" | tail -n 1) ||
		{ echo "benchpair: $2 run $3 failed: $last" >&2; exit 1; }
	case $last in
	*'"failed":0,'*) ;;
	*) echo "benchpair: $2 run $3 had failures: $last" >&2; exit 1 ;;
	esac
	grep -o '"[A-Za-z0-9_.]*":{"value":[-+.eE0-9]*' <<<"$last" |
		sed 's/"\([^"]*\)":{"value":/\1 /' >"$work/$2.$3"
}

for i in $(seq 1 "$n"); do
	if ((i % 2)); then
		run "$work/base" base "$i"
		run "$root" change "$i"
	else
		run "$root" change "$i"
		run "$work/base" base "$i"
	fi
	echo "pair $i/$n done" >&2
done

median() { sort -g | awk '{v[NR]=$1} END {print (NR%2) ? v[(NR+1)/2] : (v[NR/2]+v[NR/2+1])/2}'; }

echo "$wl: $n pairs of $secs s, base $(git -C "$root" rev-parse --short "$base") against the working tree"
printf '%-16s %14s %14s %14s %8s %8s\n' metric base_median change_median median_ratio higher lower
for m in $(cut -d' ' -f1 "$work/base.1"); do
	ratios=$(for i in $(seq 1 "$n"); do
		awk -v m="$m" '$1 == m {print $2}' "$work/base.$i" "$work/change.$i" | paste -sd' ' -
	done | awk '{print $2 / $1}')
	printf '%-16s %14.6g %14.6g %14.4f %8d %8d\n' "$m" \
		"$(awk -v m="$m" '$1 == m {print $2}' "$work"/base.* | median)" \
		"$(awk -v m="$m" '$1 == m {print $2}' "$work"/change.* | median)" \
		"$(median <<<"$ratios")" \
		"$(awk '$1 > 1' <<<"$ratios" | wc -l)" "$(awk '$1 < 1' <<<"$ratios" | wc -l)"
done
