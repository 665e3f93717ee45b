GO ?= go

.PHONY: all build test race vet lint fmt fmt-check bench bench-quick bench-diff bench-check cp-smoke experiments-quick shard-diff replay-diff ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific determinism and hot-path analyzers (see internal/lint).
# -stale fails on //lint:allow directives that no longer suppress anything.
lint:
	$(GO) run ./cmd/selfmaintlint -stale ./...

fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchmem .
	$(GO) run ./cmd/experiments -quick -serial -bench-json BENCH_experiments.json > /dev/null
	$(GO) run ./cmd/selfmaintlint -bench-json BENCH_experiments.json ./...
	$(GO) run ./cmd/cpload -watchers 1000 -steps 30 -queue-cap 64 -heap-mb 128 -bench-json BENCH_experiments.json > /dev/null

# One-iteration pass over the routing hot-path benchmarks: proves the
# incremental-invalidation and zero-alloc paths still build and run in CI.
# Real numbers come from `make bench`.
bench-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkRouterFlapChurn|BenchmarkRouterDrainBurst|BenchmarkEvaluateSteadyState|BenchmarkUniformEvaluate' -benchtime=1x .

# Performance-regression gate: regenerate the quick-suite BENCH artifact and
# diff it against the committed baseline; any experiment more than 25%
# slower (or allocating 25% more) than the baseline fails the build. Refresh
# the baseline with `make bench` after intentional performance changes.
bench-diff:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments -quick -serial -bench-json "$$tmp/bench.json" > /dev/null && \
	$(GO) run ./cmd/selfmaintlint -bench-json "$$tmp/bench.json" ./... && \
	$(GO) run ./cmd/cpload -watchers 1000 -steps 30 -queue-cap 64 -heap-mb 128 -bench-json "$$tmp/bench.json" > /dev/null && \
	$(GO) run ./cmd/benchdiff BENCH_experiments.json "$$tmp/bench.json"

# Bit-exactness gate against committed results: the benchmark module's own
# tests, then every benchmark workload run untraced and traced for one
# second each, every op's digest compared with bench/expected.json (exit 1
# on a correctness violation or a differing digest).
bench-check:
	cd bench && $(GO) test ./...
	bash bench/run.sh -check -seconds 1 > /dev/null

# Control-plane load smoke: 1k concurrent watchers against a live paced sim
# over an in-memory transport. cpload exits nonzero when the flight
# recording differs between the 0-watcher and 1000-watcher runs (watchers
# perturbed the simulation), when peak heap crosses the ceiling, or when
# nothing was delivered; -queue-cap 64 forces drop-oldest so the
# backpressure counters are exercised, not just present. The full 10k-
# watcher version is `go run ./cmd/cpload` with its defaults.
cp-smoke:
	$(GO) run ./cmd/cpload -watchers 1000 -steps 30 -queue-cap 64 -heap-mb 128

# Smoke-run the quick experiment suite on all host cores (output discarded;
# the determinism tests cover correctness, this covers the CLI path).
experiments-quick:
	$(GO) run ./cmd/experiments -quick > /dev/null

# Region-sharding differential gate: a one-shard MultiEngine world must be
# byte-identical to a plain-Engine build, and the sharded fleet must produce
# identical reports at every worker count (kernel, fleet, and full-world
# scenario layers).
shard-diff:
	$(GO) test -run 'TestSingleShardMatchesPlainEngine|TestWorkerCountsByteIdentical' ./internal/sim/
	$(GO) test -run 'TestFleetWorkerCountsByteIdentical' ./internal/fleet/
	$(GO) test -run 'TestShardedWorldMatchesPlainBuild|TestFleetScaleOutDeterminism' ./internal/scenario/

# Flight-recorder replay gate: record → replay must reproduce the live
# report fingerprint byte-for-byte (world, fleet, and R7-table layers), and
# `maintctl diff` must find divergence between seeds and none within one.
replay-diff:
	$(GO) test -run 'TestRoundTripProperty|TestDiffFindsFirstDivergence' ./internal/flightrec/
	$(GO) test -run 'TestRecordingDoesNotPerturbRun|TestWorldRecordingReplays|TestFleetRecordingReplays|TestR7FromRecordings' -timeout 600s ./internal/scenario/
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/maintctl" ./cmd/maintctl && \
	"$$tmp/maintctl" record -o "$$tmp/a.fr" -seed 7 -days 10 > /dev/null && \
	"$$tmp/maintctl" record -o "$$tmp/a2.fr" -seed 7 -days 10 > /dev/null && \
	"$$tmp/maintctl" record -o "$$tmp/b.fr" -seed 8 -days 10 > /dev/null && \
	cmp "$$tmp/a.fr" "$$tmp/a2.fr" && \
	"$$tmp/maintctl" replay "$$tmp/a.fr" > /dev/null && \
	"$$tmp/maintctl" diff "$$tmp/a.fr" "$$tmp/a2.fr" > /dev/null && \
	if "$$tmp/maintctl" diff "$$tmp/a.fr" "$$tmp/b.fr" > /dev/null; then \
		echo "replay-diff: seeds 7 and 8 produced identical recordings?"; exit 1; \
	fi && echo "replay-diff: record/replay/diff gate green"

ci:
	./ci.sh
