#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, e.g.
#
#   bash perfbench/run.sh --workload ward --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every file a run writes stay under .bench_build/ in that root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp" GOMODCACHE="${out}/gomod"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
cd "${root}"
exec "${out}/perfbench" -out "${out}/perfbench-out" "$@"
