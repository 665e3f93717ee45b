#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#	bash bench/run.sh --workload hall-year --seed 3 --seconds 15 --trace 0
#
# Every Go cache and the binary live under .bench_build at the repository
# root, so a run reads and writes nothing outside the checkout. Without the
# repository's own go.mod beside bench/ the build fails and the script exits
# nonzero before printing any result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
