#!/bin/sh
# Compare two bench.sh outputs (e.g. BENCH_1.json vs BENCH_2.json) and
# print per-benchmark deltas for time and allocations.
#
# Usage: scripts/benchdiff.sh [--warn] [OLD.json] NEW.json
#        scripts/benchdiff.sh --gate NEW.json
#
# When OLD.json is omitted the baseline is synthesized per benchmark:
# the BEST (minimum) ns/op each benchmark ever recorded across ALL
# checked-in BENCH_*.json files in the repo root (excluding NEW
# itself), and each row reports which file its baseline came from.
# (An earlier version fell back to only the highest-numbered file —
# which both compared against a single possibly-noisy snapshot and
# assumed the numbering was gapless; BENCH_3/4 were never checked in.)
#
# Benchmarks present in only one file are listed without a delta. Exits
# non-zero on malformed input, zero otherwise (the report does not judge
# regressions).
#
# With --warn, benchmarks whose ns/op regressed by more than
# BENCHDIFF_THRESHOLD percent (default 15) are additionally flagged as
# GitHub Actions "::warning::" annotations; --warn still always exits 0.
#
# With --gate, the script becomes a hard regression gate and EXITS 1 on
# failure. For every zero-allocation micro-benchmark (allocs/op == 0 in
# some checked-in baseline) it compares NEW against the BEST (minimum)
# ns/op that benchmark ever recorded across ALL checked-in BENCH_*.json
# files, and fails when
#   - ns/op regressed more than BENCHDIFF_GATE_THRESHOLD percent
#     (default 10) past the best baseline, or
#   - the benchmark allocates again (allocs/op > 0).
# ns/op comparisons across different hosts are meaningless, so each
# snapshot's env header carries a host fingerprint (hostarch + CPU
# model, emitted by bench.sh). When the baseline a regression is
# measured against was recorded on a definitely-different host, the
# ns/op failure downgrades to a "::warning::" annotation instead of
# failing the gate; a missing fingerprint component (older snapshots
# predate hostarch) is treated as matching, so legacy baselines keep
# gating at full strength. The allocs/op check is host-independent and
# always stays a hard error.
# Comparing against the best-ever baseline (not just the latest) is the
# point: it is how the PR-4/5 micro-benchmark drift slipped through —
# each snapshot was compared only to its noisy predecessor. End-to-end
# benchmarks (nonzero allocs) are excluded from the gate; their noise on
# shared runners makes a hard wall-clock gate counterproductive. Gate
# comparisons are keyed by full benchmark name. Each gate line reports
# which BENCH_*.json its best baseline came from.
set -eu

warn=0
gate=0
while [ $# -gt 0 ]; do
  case "$1" in
  --warn) warn=1; shift ;;
  --gate) gate=1; shift ;;
  *) break ;;
  esac
done

# bench.sh emits one record per line; pull the fields back out with awk
# as "name ns allocs srcfile". Works on both the old plain-array format
# and the current object format (the "env" header line carries no
# "name" key, so it is skipped).
extract() {
  awk '
    FNR == 1 { n = split(FILENAME, part, "/"); src = part[n] }
    /"name"/ {
      line = $0
      if (match(line, /"name":"[^"]*"/)) {
        name = substr(line, RSTART + 8, RLENGTH - 9)
        ns = "null"; allocs = "null"
        if (match(line, /"ns_per_op":[0-9.e+-]+/))
          ns = substr(line, RSTART + 12, RLENGTH - 12)
        if (match(line, /"allocs_per_op":[0-9]+/))
          allocs = substr(line, RSTART + 16, RLENGTH - 16)
        print name, ns, allocs, src
      }
    }
  ' "$1"
}

# Host fingerprint of a snapshot: "hostarch|cpu model" from the env
# header line. Either component may be empty (old snapshots predate
# hostarch; cpu can be "unknown" off /proc-less hosts).
fp() {
  awk '
    /"env"/ {
      arch = ""; cpu = ""
      if (match($0, /"hostarch":"[^"]*"/)) arch = substr($0, RSTART + 12, RLENGTH - 13)
      if (match($0, /"cpu":"[^"]*"/))      cpu  = substr($0, RSTART + 7, RLENGTH - 8)
      print arch "|" cpu
      exit
    }
  ' "$1"
}

if [ "$gate" = 1 ]; then
  if [ $# -ne 1 ]; then
    echo "usage: $0 --gate NEW.json" >&2
    exit 2
  fi
  new="$1"
  repo="$(cd "$(dirname "$0")/.." && pwd)"
  thr="${BENCHDIFF_GATE_THRESHOLD:-10}"
  base="${TMPDIR:-/tmp}/benchdiff_base.$$"
  newx="${TMPDIR:-/tmp}/benchdiff_new.$$"
  fpfile="${TMPDIR:-/tmp}/benchdiff_fp.$$"
  trap 'rm -f "$base" "$newx" "$fpfile"' EXIT
  : > "$base"
  : > "$fpfile"
  found=0
  for f in $(ls "$repo"/BENCH_*.json 2>/dev/null | sort -t_ -k2 -n); do
    [ "$f" -ef "$new" ] 2>/dev/null && continue
    extract "$f" >> "$base"
    printf '%s\t%s\n' "${f##*/}" "$(fp "$f")" >> "$fpfile"
    found=1
  done
  if [ "$found" = 0 ]; then
    echo "$0: no baseline BENCH_*.json found in $repo" >&2
    exit 2
  fi
  extract "$new" > "$newx"
  newfp="$(fp "$new")"
  awk -v basefile="$base" -v fpfile="$fpfile" -v newfp="$newfp" -v thr="$thr" '
    BEGIN {
      # Best (minimum) ns/op per benchmark, restricted to records where
      # the benchmark ran allocation-free: once a bench has hit zero
      # allocs in any checked-in baseline, it is gated forever.
      while ((getline line < basefile) > 0) {
        split(line, f, " ")
        if (f[3] + 0 == 0 && f[3] != "null") {
          zero[f[1]] = 1
          if (!(f[1] in best) || f[2] + 0 < best[f[1]]) {
            best[f[1]] = f[2] + 0
            bestsrc[f[1]] = f[4]
          }
        }
      }
      close(basefile)
      while ((getline line < fpfile) > 0) {
        split(line, f, "\t")
        srcfp[f[1]] = f[2]
      }
      close(fpfile)
      fail = 0
    }
    # Fingerprints match unless a component is present on both sides
    # AND differs: empty components (pre-hostarch snapshots, unreadable
    # /proc/cpuinfo) are unknowns, and an unknown host must keep the
    # gate hard rather than excuse every legacy baseline.
    function fpmatch(a, b,   x, y) {
      split(a, x, "|"); split(b, y, "|")
      if (x[1] != "" && y[1] != "" && x[1] != y[1]) return 0
      if (x[2] != "" && y[2] != "" && x[2] != y[2] && x[2] != "unknown" && y[2] != "unknown") return 0
      return 1
    }
    {
      name = $1; nns = $2 + 0; nal = $3
      if (!(name in zero)) next
      checked++
      if (nal + 0 > 0) {
        printf "::error title=bench gate::%s allocates again (%s allocs/op; baseline is allocation-free)\n", name, nal
        fail = 1
      }
      pct = 100 * (nns - best[name]) / best[name]
      if (pct > thr) {
        if (fpmatch(srcfp[bestsrc[name]], newfp)) {
          printf "::error title=bench gate::%s ns/op regressed %+.1f%% vs best baseline (%.4g in %s -> %.4g, gate %s%%)\n",
            name, pct, best[name], bestsrc[name], nns, thr
          fail = 1
        } else {
          printf "::warning title=bench gate::%s ns/op regressed %+.1f%% vs best baseline (%.4g in %s -> %.4g, gate %s%%) — host fingerprint differs (%s vs %s), not gating\n",
            name, pct, best[name], bestsrc[name], nns, thr, srcfp[bestsrc[name]], newfp
        }
      } else {
        printf "gate ok: %-34s %10.4g ns/op vs best %10.4g [%s] (%+.1f%%, gate %s%%)\n",
          name, nns, best[name], bestsrc[name], pct, thr
      }
    }
    END {
      if (checked == 0) {
        print "::error title=bench gate::no gated benchmarks found in new snapshot"
        fail = 1
      }
      exit fail
    }
  ' "$newx"
  exit $?
fi

oldx="${TMPDIR:-/tmp}/benchdiff_old.$$"
newx="${TMPDIR:-/tmp}/benchdiff_new.$$"
trap 'rm -f "$oldx" "$newx"' EXIT
merged=0
case $# in
2)
  extract "$1" > "$oldx"
  new="$2"
  ;;
1)
  # OLD omitted: synthesize a best-ever baseline. For each benchmark,
  # keep the record with the minimum ns/op across every checked-in
  # BENCH_*.json (skipping NEW itself); the source file rides along in
  # column 4 so every report row can say where its baseline came from.
  new="$1"
  repo="$(cd "$(dirname "$0")/.." && pwd)"
  merged=1
  : > "$oldx"
  files=""
  for f in $(ls "$repo"/BENCH_*.json 2>/dev/null | sort -t_ -k2 -n); do
    [ "$f" -ef "$new" ] 2>/dev/null && continue
    extract "$f" >> "$oldx"
    files="$files ${f##*/}"
  done
  if [ -z "$files" ]; then
    echo "$0: no baseline BENCH_*.json found in $repo" >&2
    exit 2
  fi
  awk '
    $2 != "null" && (!($1 in best) || $2 + 0 < best[$1]) {
      if (!($1 in best)) order[++n] = $1
      best[$1] = $2 + 0
      line[$1] = $0
    }
    END { for (i = 1; i <= n; i++) print line[order[i]] }
  ' "$oldx" > "$oldx.min" && mv "$oldx.min" "$oldx"
  echo "benchdiff: baseline = per-benchmark best across$files" >&2
  ;;
*)
  echo "usage: $0 [--warn] [OLD.json] NEW.json" >&2
  exit 2
  ;;
esac
threshold="${BENCHDIFF_THRESHOLD:-15}"

extract "$new" > "$newx"

awk -v oldfile="$oldx" -v merged="$merged" '
  BEGIN {
    while ((getline line < oldfile) > 0) {
      split(line, f, " ")
      ons[f[1]] = f[2]; oal[f[1]] = f[3]; osrc[f[1]] = f[4]; seen[f[1]] = 1
    }
    close(oldfile)
    printf "%-34s %14s %14s %8s %12s %12s %8s%s\n",
      "benchmark", "old-ns/op", "new-ns/op", "time", "old-allocs", "new-allocs", "allocs",
      merged ? "  baseline-src" : ""
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
    printf "%-34s %14s %14s %8s %12s %12s %8s%s\n", name, ons[name], nns, dt, oal[name], nal, da,
      merged ? "  " osrc[name] : ""
  }
  END {
    for (name in seen) if (!(name in done))
      printf "%-34s %14s %14s %8s %12s %12s %8s   (dropped%s)\n",
        name, ons[name], "-", "-", oal[name], "-", "-", merged ? "; was in " osrc[name] : ""
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
