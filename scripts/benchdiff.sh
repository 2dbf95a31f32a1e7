#!/bin/sh
# Compare two bench.sh outputs (e.g. BENCH_1.json vs BENCH_2.json) and
# print per-benchmark deltas for time and allocations.
#
# Usage: scripts/benchdiff.sh [--warn] OLD.json NEW.json
#
# Benchmarks present in only one file are listed without a delta. Exits
# non-zero on malformed input, zero otherwise (the report does not judge
# regressions: snapshots from different hosts or days differ by more
# than any code change, so the regression gate is scripts/benchgate.sh,
# which measures a base revision and the working tree on one host).
#
# With --warn, benchmarks whose ns/op regressed by more than
# BENCHDIFF_THRESHOLD percent (default 15) are additionally flagged as
# GitHub Actions "::warning::" annotations; --warn still always exits 0.
set -eu

warn=0
if [ "${1:-}" = --warn ]; then
  warn=1
  shift
fi
if [ $# -ne 2 ]; then
  echo "usage: $0 [--warn] OLD.json NEW.json" >&2
  exit 2
fi

# bench.sh emits one record per line; pull the fields back out with awk
# as "name ns allocs". Works on both the old plain-array format
# and the current object format (the "env" header line carries no
# "name" key, so it is skipped).
extract() {
  awk '
    /"name"/ {
      line = $0
      if (match(line, /"name":"[^"]*"/)) {
        name = substr(line, RSTART + 8, RLENGTH - 9)
        ns = "null"; allocs = "null"
        if (match(line, /"ns_per_op":[0-9.e+-]+/))
          ns = substr(line, RSTART + 12, RLENGTH - 12)
        if (match(line, /"allocs_per_op":[0-9]+/))
          allocs = substr(line, RSTART + 16, RLENGTH - 16)
        print name, ns, allocs
      }
    }
  ' "$1"
}

oldx="${TMPDIR:-/tmp}/benchdiff_old.$$"
newx="${TMPDIR:-/tmp}/benchdiff_new.$$"
trap 'rm -f "$oldx" "$newx"' EXIT
extract "$1" > "$oldx"
extract "$2" > "$newx"
threshold="${BENCHDIFF_THRESHOLD:-15}"

awk -v oldfile="$oldx" '
  BEGIN {
    while ((getline line < oldfile) > 0) {
      split(line, f, " ")
      ons[f[1]] = f[2]; oal[f[1]] = f[3]; seen[f[1]] = 1
    }
    close(oldfile)
    printf "%-34s %14s %14s %8s %12s %12s %8s\n",
      "benchmark", "old-ns/op", "new-ns/op", "time", "old-allocs", "new-allocs", "allocs"
  }
  {
    name = $1; nns = $2; nal = $3
    if (!(name in ons)) {
      printf "%-34s %14s %14s %8s %12s %12s %8s   (new)\n", name, "-", nns, "-", "-", nal, "-"
      next
    }
    done[name] = 1
    dt = (ons[name] + 0 > 0) ? sprintf("%+.1f%%", 100 * (nns - ons[name]) / ons[name]) : "-"
    da = (oal[name] + 0 > 0) ? sprintf("%+.1f%%", 100 * (nal - oal[name]) / oal[name]) : "-"
    printf "%-34s %14s %14s %8s %12s %12s %8s\n", name, ons[name], nns, dt, oal[name], nal, da
  }
  END {
    for (name in seen) if (!(name in done))
      printf "%-34s %14s %14s %8s %12s %12s %8s   (dropped)\n",
        name, ons[name], "-", "-", oal[name], "-", "-"
  }
' "$newx"

if [ "$warn" = 1 ]; then
  awk -v oldfile="$oldx" -v thr="$threshold" '
    BEGIN {
      while ((getline line < oldfile) > 0) {
        split(line, f, " ")
        ons[f[1]] = f[2]
      }
      close(oldfile)
    }
    {
      name = $1; nns = $2
      if (!(name in ons) || ons[name] + 0 <= 0) next
      pct = 100 * (nns - ons[name]) / ons[name]
      if (pct > thr)
        printf "::warning title=bench regression::%s ns/op regressed %+.1f%% (%s -> %s, threshold %s%%)\n",
          name, pct, ons[name], nns, thr
    }
  ' "$newx"
fi
