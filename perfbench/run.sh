#!/usr/bin/env bash
# Builds the benchmark and snsserve from source into .bench_build/ and runs
# one benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload taxi --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, data directories, logs,
# spans) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/snsserve" ./cmd/snsserve >&2
exec "$out/perfbench" -snsserve "$out/snsserve" -workdir "$out" "$@"
