GO ?= go

.PHONY: build test race vet verify exp bench netbench chaos cover scenario fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }

# verify is the gate a change must pass before it ships.
verify: vet race

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
# QUIC-baseline stream reassembly) for FUZZTIME each.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run XXX -fuzz FuzzReassembly -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run XXX -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzQUICStreamReassembly -fuzztime $(FUZZTIME) ./internal/baseline

# exp regenerates the paper's figures on the simulator.
exp: build
	$(GO) run ./cmd/mtpexp -exp all

# bench runs the repository's one benchmark (bench/, declared in
# BENCHMARK.json): six workloads, end-to-end metrics; see bench/README.md
# for -trace 1 (the per-layer ladder), -workload, -compare and -record.
bench:
	bash bench/run.sh

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
