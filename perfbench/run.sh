#!/usr/bin/env bash
# Builds the servers and the load generator from the checkout this script
# lives in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload order-search --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache included).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0

# The repository's own server binaries, built from this checkout; a checkout
# without them fails here and prints no result.
go build -o "$out/bin/" ./cmd/slicer-cloud ./cmd/slicer-chain ./cmd/slicer-router
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -out "$out/runs" "$@"
