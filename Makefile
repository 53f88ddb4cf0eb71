GO ?= go

.PHONY: build test race vet verify golden exp sim-smoke bench benchpair netbench chaos cover scenario fuzz loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# golden_clean fails when a golden file, or a runfile that reproduces one
# (internal/exp/testdata/*.run), differs from the last commit: a test that
# rewrites either is a bug, and `make golden` output must be reviewed and
# committed, not left lying in the tree.
define golden_clean
@test -z "$$(git status --porcelain internal/*/testdata)" || { echo "golden files changed:"; git status --porcelain internal/*/testdata; exit 1; }
endef

# The build-tagged udpnet files compile for linux/amd64 only on a developer's
# machine; the two cross-vets keep the portable stub and the arm64 constants
# from rotting (both work offline, from GOROOT alone).
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/udpnet .
	GOARCH=arm64 $(GO) vet ./internal/udpnet
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }
	$(golden_clean)

# verify is the gate a change must pass before it ships; the golden check runs
# again after the tests have had their chance to touch the files.
verify: vet race
	$(golden_clean)

# golden regenerates the experiment and scenario golden files (TESTING.md).
golden:
	$(GO) test ./internal/exp ./internal/scenario -run Golden -update -count=1

# cover runs the whole suite with coverage and enforces the committed
# baseline (ci/coverage_baseline.txt).
cover:
	sh ci/covergate.sh

# scenario runs seeded random scenarios under the invariant harness; override
# SCENARIO_SEEDS for a deeper sweep (the nightly job uses 500).
SCENARIO_SEEDS ?=
scenario:
	SCENARIO_SEEDS=$(SCENARIO_SEEDS) $(GO) test ./internal/scenario -run Scenario -count=1 -v

# fuzz runs the native fuzz targets (reassembly state machine, wire decoder,
# QUIC-baseline stream reassembly, event order against a sorted oracle) for
# FUZZTIME each.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run XXX -fuzz FuzzReassembly -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run XXX -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzQUICStreamReassembly -fuzztime $(FUZZTIME) ./internal/baseline
	$(GO) test -run XXX -fuzz FuzzEngineOrder -fuzztime $(FUZZTIME) ./internal/sim

# exp regenerates the paper's figures on the simulator.
exp: build
	$(GO) run ./cmd/mtpexp -exp all

# sim-smoke runs the simulator smokes of CI's verify job end to end through
# the CLI: the rows of ci/sim.run (scale, sharded scale, table1, failover
# against two rivals, offfail), every checkable one under the invariant
# harness. One row: go run ./cmd/mtpexp -run ci/sim.run -only offfail
sim-smoke: build
	$(GO) run ./cmd/mtpexp -run ci/sim.run

# bench runs the repository's one benchmark (bench/, declared in
# BENCHMARK.json): six workloads, end-to-end metrics; see bench/README.md
# for -trace 1 (the per-layer ladder), -workload, -compare and -record.
bench:
	bash bench/run.sh

# benchpair is the evidence a performance change brings: for each workload
# of WL in turn, N alternating runs on BASE (unpacked under .bench_build/) and
# on the working tree, 28 s each as the driver runs them, and per end-to-end
# metric both medians, both quartile distances and the median of the per-pair
# ratios. make benchpair WL="bulk_udp small_udp lossy_udp"
# TRACED=K adds K traced pairs (--trace 1, 6 s) per workload and prints the
# per-layer cells of both sides: timeouts, retransmissions, duplicates, NACKs,
# engine latency, CPU per message, timer lateness, the wheel's Schedule cost,
# context switches, scheduler latency, Node mutex wait, packets and ACKs per
# message; under the simulator, allocation, GC share, wall time, the engine's
# cost and allocations per event and a hop's cost, event throughput, each
# row's cost per event, the two shard speedups, and the exact counts a
# behaviour-preserving change must not move (events per row, MTP
# retransmissions, the two-shard run's barrier rounds and crossings).
N ?= 10
BASE ?= HEAD~1
TRACED ?= 0
benchpair:
	TRACED=$(TRACED) bash ci/benchpair.sh "$(WL)" $(N) $(BASE)

# netbench is the real-socket smoke gate: the platform launcher runs the
# loopback runfile (multi-process, real UDP, re-exec workers) and exits
# non-zero on any lost or duplicated message.
netbench: build
	$(GO) run ./cmd/mtploadgen -runfile ci/netbench.run

# chaos is the crash-tolerance smoke: the launcher SIGKILLs one generator
# mid-run. It must detect the death within a heartbeat interval, salvage the
# surviving generator, and audit it exactly-once against the sink's per-port
# counts — exiting non-zero if the survivors lost or duplicated anything, or
# if the kill missed the run entirely (no point came back degraded).
chaos: build
	$(GO) run ./cmd/mtploadgen -runfile ci/chaos.run -chaos kill:2@150ms

# loc prints the Go line counts CHANGES.md quotes: non-test and test lines
# for each package of the root module, the module's totals, and bench's total.
loc:
	bash ci/loc.sh
