#!/usr/bin/env bash
# Go line counts: each package of the root module (non-test and _test.go
# lines), the module's totals, and the bench module's total.
#
#   bash ci/loc.sh        (or: make loc)
#
# Packages come from `go list ./...`, which skips the bench module (it has its
# own go.mod) and dot-directories such as .bench_build. Every .go file of a
# package's directory counts, whatever its build constraints.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { # lines of the .go files in directory $1 whose names match $2 but not $3
	find "$1" -maxdepth 1 -name "$2" ! -name "$3" -exec cat {} + | wc -l
}

printf '%-26s %9s %6s\n' package non-test test
src_total=0
test_total=0
for dir in $(go list -f '{{.Dir}}' ./...); do
	src=$(lines "$dir" '*.go' '*_test.go')
	tst=$(lines "$dir" '*_test.go' '')
	printf '%-26s %9d %6d\n' ".${dir#"$PWD"}" "$src" "$tst"
	src_total=$((src_total + src))
	test_total=$((test_total + tst))
done
printf '%-26s %9d %6d\n' 'total (root module)' "$src_total" "$test_total"
printf '%-26s %16d\n' 'bench (all .go)' "$(find bench -name '*.go' -exec cat {} + | wc -l)"
