#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload predict --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and everything a run writes stay in
# .bench_build under the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
