#!/bin/sh
# Paired micro-benchmark gate: measures the change, not the host.
#
# Usage: scripts/benchgate.sh BASE_REV
#
# Builds the hot-path micro-benchmarks' test binaries twice on this
# machine (-trimpath, so unchanged code gives identical binaries), once
# from BASE_REV (exported with git archive) and once from the working
# tree. Then it runs NWCACHE_BENCH_SAMPLES rounds (default 10): in each,
# every benchmark runs 3 times on each side, one NWCACHE_BENCHTIME
# sample (default 20ms) per run under GOMAXPROCS=1, the sides
# alternating run by run. Each back-to-back pair of runs gives one paired
# ratio, working tree over base, taken within a fraction of a second, so
# a change in the host's speed mostly hits both sides or neither. For
# every benchmark that runs allocation-free at BASE_REV, the gate fails
# when
#   - the median of its paired ratios says the working tree is more than
#     BENCHGATE_THRESHOLD percent (default 10) slower, or
#   - the working tree's benchmark allocates (allocs/op > 0).
# Each side's minimum over all runs is printed beside it for reference.
# A benchmark BASE_REV lacks, or one that allocates there, is reported
# and not gated. Exits 1 when the gate fails, 2 on a usage or build error.
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE_REV" >&2
  exit 2
fi
base="$(git rev-parse --verify "$1^{commit}")" || exit 2
rounds="${NWCACHE_BENCH_SAMPLES:-10}"
bt="${NWCACHE_BENCHTIME:-20ms}"
thr="${BENCHGATE_THRESHOLD:-10}"
head="$(pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/bin"
git archive "$base" | tar -x -C "$tmp/base"

# The gated benchmarks, each with its package.
benches='. BenchmarkEngineEventThroughput
. BenchmarkProbedEventThroughput
. BenchmarkCallbackHandoff
. BenchmarkThreadResume
. BenchmarkCtxTouch
. BenchmarkPageFault
. BenchmarkMeshTransit
. BenchmarkRingInsertRelease
./internal/vm BenchmarkFramePoolTouch
./internal/vm BenchmarkFramePoolEvict
./internal/machine BenchmarkWriteBufferEnqueue
./internal/tlb BenchmarkTLBLookup
./internal/coherence BenchmarkCoherentCacheAccess
./internal/obs BenchmarkSamplerTickLive'

binname() { echo "$1" | tr -c 'a-zA-Z0-9\n' '_'; }

for side in base head; do
  tree="$head"
  [ "$side" = base ] && tree="$tmp/base"
  echo "$benches" | cut -d' ' -f1 | sort -u | while read -r pkg; do
    if [ -d "$tree/$pkg" ]; then
      (cd "$tree" && go test -c -trimpath -o "$tmp/bin/$side-$(binname "$pkg").test" "$pkg") || exit 2
    fi
  done
done

run() { # $1=side $2=package $3=benchmark $4=pair: one sample
  bin="$tmp/bin/$1-$(binname "$2").test"
  [ -x "$bin" ] || return 0
  # Both sides run from the same directory (the gated benchmarks read no
  # files), so nothing but the binaries differs between them.
  if ! (cd "$tmp" && GOMAXPROCS=1 "$bin" -test.run '^$' -test.bench "^$3\$" \
    -test.benchmem -test.benchtime "$bt" -test.count 1) > "$tmp/out" 2>&1; then
    cat "$tmp/out" >&2
    exit 2
  fi
  awk -v side="$1" -v pair="$4" '/^Benchmark/ { print side, pair, $0 }' "$tmp/out" >> "$tmp/raw"
}

# The host's speed can change by half for seconds at a time, so the two
# sides' samples interleave one by one: in each round every benchmark
# runs 3 times on each side, alternately, the side that goes first
# alternating too.
: > "$tmp/raw"
i=1
while [ "$i" -le "$rounds" ]; do
  echo "$benches" | while read -r pkg name; do
    for k in 1 2 3; do
      if [ $(((i + k) % 2)) -eq 0 ]; then
        run base "$pkg" "$name" "$i.$k"; run head "$pkg" "$name" "$i.$k"
      else
        run head "$pkg" "$name" "$i.$k"; run base "$pkg" "$name" "$i.$k"
      fi
    done
  done
  echo "round $i of $rounds done" >&2
  i=$((i + 1))
done

awk -v thr="$thr" -v rounds="$rounds" '
  # Median of the n values in v[1..n] (sorted in place).
  function median(v, n,   i, j, x) {
    for (i = 2; i <= n; i++) {
      x = v[i]
      for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
      v[j + 1] = x
    }
    return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
  }
  {
    side = $1; pair = $2; name = $3
    sub(/-[0-9]+$/, "", name)
    ns = $5 + 0; allocs = 0
    for (i = 6; i <= NF; i++) if ($i == "allocs/op") allocs = $(i - 1) + 0
    key = side SUBSEP name
    t[key, pair] = ns
    if (side == "base") pairs[name, ++np[name]] = pair
    if (!(key in best) || ns < best[key]) best[key] = ns
    if (!(key in al) || allocs > al[key]) al[key] = allocs
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
  }
  END {
    fail = 0; gated = 0
    printf "%-32s %10s %10s %8s %8s %7s %7s  (%d rounds, gate +%s%%)\n",
      "benchmark", "base-min", "head-min", "min", "paired", "b-alloc", "h-alloc", rounds, thr
    for (k = 1; k <= n; k++) {
      name = order[k]; b = "base" SUBSEP name; h = "head" SUBSEP name
      if (!(h in best)) {
        printf "%-32s dropped at head\n", name
        continue
      }
      if (!(b in best)) {
        printf "%-32s %10s %10.4g %8s %8s %7s %7s  new, not gated\n", name, "-", best[h], "-", "-", "-", al[h]
        continue
      }
      m = 0
      for (q = 1; q <= np[name]; q++) {
        p = pairs[name, q]
        if ((h, p) in t && t[b, p] > 0) ratio[++m] = t[h, p] / t[b, p]
      }
      pct = 100 * (median(ratio, m) - 1)
      minpct = 100 * (best[h] / best[b] - 1)
      note = ""
      if (al[b] != 0) {
        note = "allocates at base, not gated"
      } else {
        gated++
        if (al[h] > 0) {
          printf "::error title=bench gate::%s allocates (%s allocs/op; allocation-free at base)\n", name, al[h]
          fail = 1
        }
        if (pct > thr) {
          printf "::error title=bench gate::%s ns/op %+.1f%% vs base (median of %d paired ratios; minimum %.4g -> %.4g); gate %s%%\n", name, pct, m, best[b], best[h], thr
          fail = 1
          note = "REGRESSED"
        }
      }
      printf "%-32s %10.4g %10.4g %+7.1f%% %+7.1f%% %7s %7s  %s\n", name, best[b], best[h], minpct, pct, al[b], al[h], note
    }
    if (gated == 0) {
      print "::error title=bench gate::no benchmark was gated"
      fail = 1
    }
    exit fail
  }
' "$tmp/raw"
