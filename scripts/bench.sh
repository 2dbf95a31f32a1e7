#!/bin/sh
# Run the hot-path benchmarks and emit a BENCH_*.json snapshot.
#
# Usage: scripts/bench.sh [output.json]          (default BENCH_12.json)
#
# Benchmarks:
#   BenchmarkEngineEventThroughput  pooled event schedule/dispatch cycle
#   BenchmarkProcSwitch             Sleep round-trip (migrating driver)
#   BenchmarkProcHandoff            hand-off between two procs (coroutine switch)
#   BenchmarkCallbackHandoff        hand-off between two continuations via a Cond
#   BenchmarkCtxTouch               one CPU's Touch chain on resident pages (CC hits + misses)
#   BenchmarkSingleRunGauss         end-to-end run, swap-heavy application
#   BenchmarkSingleRunFFT           end-to-end run, communication-heavy
#   BenchmarkMeshTransit            precomputed-route mesh reservation
#   BenchmarkFramePoolTouch         LRU refresh on the per-access path
#   BenchmarkFramePoolEvict         reserve/adopt/unmap/release cycle
#   BenchmarkWriteBufferEnqueue     write-buffer push + coalesce scan
#   BenchmarkTLBLookup              TLB hit/miss churn (64 entries)
#   BenchmarkCoherentCacheAccess    coherent cache State/Insert/DropPage
#
# Methodology (pinned, so snapshots are comparable):
#   - End-to-end benchmarks run a fixed iteration count (default 3x, so
#     per-op numbers always average >2 full runs instead of whatever a
#     wall-clock budget happens to fit).
#   - Micro-benchmarks run under GOMAXPROCS=1 (the simulator is
#     single-threaded; background GC workers otherwise add scheduler
#     noise) and are sampled NWCACHE_BENCH_SAMPLES times (default 10,
#     via -count in a single test-binary invocation), keeping the
#     per-benchmark MINIMUM ns/op: the minimum estimates the true cost
#     of the code, everything above it is machine noise.
#   - The emitted JSON carries an "env" header (go version, CPU model,
#     sampling parameters) so a diff between two snapshots can tell
#     code drift from environment drift.
#
# Compare against a previous emission with scripts/benchdiff.sh; gate
# hard with scripts/benchdiff.sh --gate.
#
# Output shape: {"env": {...}, "benchmarks": [{name, iterations,
# ns_per_op, bytes_per_op, allocs_per_op}, ...]} — one benchmark per
# line, which benchdiff.sh relies on (and which keeps older plain-array
# BENCH_*.json files readable by the same parser).
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_12.json}"
samples="${NWCACHE_BENCH_SAMPLES:-10}"
micro_bt="${NWCACHE_BENCHTIME:-300ms}"
run_bt="${NWCACHE_RUN_BENCHTIME:-3x}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# End-to-end runs: fixed iteration count. NWCACHE_BENCH_SCALE (see
# bench_test.go) applies as usual.
go test -run '^$' \
  -bench '^(BenchmarkSingleRunGauss|BenchmarkSingleRunFFT)$' \
  -benchmem -benchtime "$run_bt" . | tee "$raw" >&2

# Micro-benchmarks: GOMAXPROCS=1, N samples each via -count; the awk
# pass below keeps the minimum per benchmark.
GOMAXPROCS=1 go test -run '^$' \
  -bench '^(BenchmarkEngineEventThroughput|BenchmarkProcSwitch|BenchmarkProcHandoff|BenchmarkCallbackHandoff|BenchmarkCtxTouch|BenchmarkMeshTransit)$' \
  -benchmem -benchtime "$micro_bt" -count "$samples" . | tee -a "$raw" >&2
GOMAXPROCS=1 go test -run '^$' \
  -bench '^(BenchmarkFramePoolTouch|BenchmarkFramePoolEvict)$' \
  -benchmem -benchtime "$micro_bt" -count "$samples" ./internal/vm | tee -a "$raw" >&2
GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkWriteBufferEnqueue$' \
  -benchmem -benchtime "$micro_bt" -count "$samples" ./internal/machine | tee -a "$raw" >&2
GOMAXPROCS=1 go test -run '^$' -bench '^(BenchmarkTLBLookup|BenchmarkCoherentCacheAccess)$' \
  -benchmem -benchtime "$micro_bt" -count "$samples" ./internal/tlb ./internal/coherence | tee -a "$raw" >&2

go_ver="$(go version | sed 's/^go version //')"
hostarch="$(go env GOHOSTARCH)"
cpu="unknown"
if [ -r /proc/cpuinfo ]; then
  cpu="$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo)"
fi

awk -v go_ver="$go_ver" -v hostarch="$hostarch" -v cpu="$cpu" -v samples="$samples" \
    -v micro_bt="$micro_bt" -v run_bt="$run_bt" '
  /^Benchmark/ {
    bench = $1
    sub(/-[0-9]+$/, "", bench)
    ns = $3 + 0
    bytes = "null"; allocs = "null"
    for (i = 4; i <= NF; i++) {
      if ($i == "B/op")      bytes  = $(i - 1)
      if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (!(bench in best) || ns < best[bench]) {
      best[bench] = ns
      rec[bench] = sprintf("{\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}",
                           bench, $2, $3, bytes, allocs)
    }
    if (!(bench in seen)) { order[++n] = bench; seen[bench] = 1 }
  }
  END {
    printf "{\n"
    printf "  \"env\": {\"go\":\"%s\",\"hostarch\":\"%s\",\"cpu\":\"%s\",\"micro_gomaxprocs\":1,\"micro_samples\":%s,\"micro_benchtime\":\"%s\",\"run_benchtime\":\"%s\",\"estimator\":\"min\"},\n",
           go_ver, hostarch, cpu, samples, micro_bt, run_bt
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++)
      printf "  %s%s\n", rec[order[i]], (i < n ? "," : "")
    printf "  ]\n}\n"
  }
' "$raw" > "$out"

echo "wrote $out" >&2
