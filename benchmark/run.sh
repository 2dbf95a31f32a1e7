#!/usr/bin/env bash
# Build the benchmark harness from source and run it with the given
# arguments, from the repository root:
#
#   bash benchmark/run.sh --workload swap-gauss --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh                      # every workload, traced
#
# Everything the build and the run write stays under .bench_build/ in the
# repository: the Go build cache, the binary, and temporary files (the
# service workloads' data directories live in TMPDIR).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
  echo "benchmark: $root does not hold the repository source" >&2
  exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
