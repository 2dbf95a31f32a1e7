#!/bin/sh
# Capture and compare CPU profiles of the benchmark suite, to attribute
# per-op drift between two revisions to specific functions instead of
# guessing from aggregate ns/op. (The PR-4/5 post-mortem in DESIGN.md is
# the motivating example: aggregate numbers said "workload generation",
# the profile said "sim spawn path + machine delivery closures".)
#
# Usage:
#   scripts/profdiff.sh capture OUT.prof [nwbench args...]
#       Run the full table sweep single-threaded with -cpuprofile.
#       PROFDIFF_SCALE (default 0.4) and PROFDIFF_SEED (default 1)
#       control the workload; extra args go to nwbench verbatim.
#
#   scripts/profdiff.sh diff OLD.prof NEW.prof
#       Print the top-10 flat-time deltas (NEW relative to OLD, via
#       pprof -diff_base): positive entries got slower or appeared,
#       negative entries got faster or vanished.
#
# Typical use across a change:
#   git stash && scripts/profdiff.sh capture /tmp/before.prof
#   git stash pop && scripts/profdiff.sh capture /tmp/after.prof
#   scripts/profdiff.sh diff /tmp/before.prof /tmp/after.prof
set -eu
cd "$(dirname "$0")/.."

mode="${1:-}"
case "$mode" in
capture)
  [ $# -ge 2 ] || { echo "usage: $0 capture OUT.prof [nwbench args...]" >&2; exit 2; }
  out="$2"
  shift 2
  # -j 1 keeps the profile serial (one simulation at a time), so flat
  # time maps cleanly onto the single-run hot path.
  go run ./cmd/nwbench -all -q -j 1 \
    -scale "${PROFDIFF_SCALE:-0.4}" -seed "${PROFDIFF_SEED:-1}" \
    -cpuprofile "$out" "$@" > /dev/null
  echo "wrote $out" >&2
  ;;
diff)
  [ $# -eq 3 ] || { echo "usage: $0 diff OLD.prof NEW.prof" >&2; exit 2; }
  old="$2"
  new="$3"
  echo "top-10 flat-time deltas ($new relative to $old):"
  go tool pprof -top -nodecount=10 -diff_base="$old" "$new"
  ;;
*)
  echo "usage: $0 capture OUT.prof [nwbench args...] | diff OLD.prof NEW.prof" >&2
  exit 2
  ;;
esac
