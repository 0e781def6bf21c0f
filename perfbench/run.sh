#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root. Everything the build and the run write stays under
# .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload gateway-trickle --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
