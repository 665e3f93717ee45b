#!/bin/sh
# CI gate: build, vet, formatting, and the full test suite under the race
# detector. Run from the repository root (or via `make ci`).
set -eu

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== selfmaintlint (-stale)"
make lint

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go test -race"
go test -race ./...

echo "== fuzz (EvaluateInto against its per-pair spec, 10 s)"
go test -run '^$' -fuzz '^FuzzEvaluateMatchesSpec$' -fuzztime 10s ./internal/routing

echo "== fuzz (repeated-addition kernel: the plain loop's bits, 10 s)"
go test -run '^$' -fuzz '^FuzzAddRepeated$' -fuzztime 10s ./internal/routing

echo "== fuzz (flight-recording reader: error, never panic, 10 s)"
go test -run '^$' -fuzz '^FuzzReader$' -fuzztime 10s ./internal/flightrec

echo "== fuzz (robot API handler: any request, JSON answers, never panic, 10 s)"
go test -run '^$' -fuzz '^FuzzHandler$' -fuzztime 10s ./internal/robotapi

echo "== fuzz (SSE stream reader: frames then EOF, never panic, 10 s)"
go test -run '^$' -fuzz '^FuzzSSEReader$' -fuzztime 10s ./internal/controlplane

echo "== fuzz (SSE query parameters: 400, 409 or a hello, bounded sessions, 10 s)"
go test -run '^$' -fuzz '^FuzzStreamParams$' -fuzztime 10s ./internal/controlplane

echo "== shard-diff (sharded == single-engine, all worker counts)"
make shard-diff

echo "== replay-diff (flight recorder: record == replay, diff finds divergence)"
make replay-diff

echo "== bench-check (benchmark workloads: digests match bench/expected.json)"
make bench-check

echo "== cp-smoke (1k stream watchers: bounded heap, byte-identical transcript)"
make cp-smoke

echo "== bench smoke (routing hot paths, 1 iteration)"
make bench-quick

echo "== bench-diff (quick suite vs committed BENCH baseline, 25% gate)"
make bench-diff

echo "== experiments smoke (quick suite, parallel)"
make experiments-quick

echo "CI green"
