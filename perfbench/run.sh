#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root; all arguments pass through to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload steady-http --seed 1 --seconds 15 --trace 0
#
# Build outputs (binary, Go build cache) go to .bench_build in the root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
