#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#   bash perfbench/run.sh --workload tcp-stock --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs, the Go build cache and
# span files stay under .bench_build/ in the checkout.
set -euo pipefail
out=".bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
