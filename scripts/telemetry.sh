#!/bin/sh
# Telemetry self-check gate: series determinism plus a hard cross-run
# regression check via nwreport -diff.
#
# Usage:
#   scripts/telemetry.sh            verify against the committed baseline
#   scripts/telemetry.sh --update   regenerate testdata/telemetry/baseline-manifest.json
#
# Four checks, all hard failures:
#   1. Two identical seeded runs with the sampler attached produce
#      byte-identical series files and byte-identical stdout — the
#      sampler ticks on the virtual clock, never the wall clock.
#   2. A fresh run's manifest diffs clean against the committed
#      baseline at threshold 0 (exact mode: every metric and the
#      stdout digest must match).
#   3. The gate has teeth: a seed-perturbed run must FAIL the same
#      diff. If it passes, the baseline is not actually pinning
#      anything and the script errors out.
#   4. nwreport renders an HTML report from the run's artifacts
#      (written to $TELEMETRY_REPORT when set, so CI can upload it).
#
# em3d is used because it is seed-sensitive: perturbing the seed moves
# its metrics, which is exactly what check 3 needs.
set -eu
cd "$(dirname "$0")/.."

baseline="testdata/telemetry/baseline-manifest.json"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

app="em3d"
scale="0.3"
interval="200000"

run() { # $1=seed $2=name [extra nwsim flags...]
  seed="$1"; name="$2"; shift 2
  go run ./cmd/nwsim -app "$app" -scale "$scale" -seed "$seed" \
    -series-out "$tmp/$name.ndjson" -series-interval "$interval" \
    -manifest-out "$tmp/$name-manifest.json" "$@" > "$tmp/$name-stdout.txt"
}

# 1. Determinism: identical runs, byte-identical telemetry and output.
run 1 a
run 1 b
if ! cmp -s "$tmp/a.ndjson" "$tmp/b.ndjson"; then
  echo "telemetry: series files differ across identical seeded runs" >&2
  exit 1
fi
if ! cmp -s "$tmp/a-stdout.txt" "$tmp/b-stdout.txt"; then
  echo "telemetry: stdout differs across identical seeded runs" >&2
  exit 1
fi

if [ "${1:-}" = "--update" ]; then
  mkdir -p testdata/telemetry
  cp "$tmp/a-manifest.json" "$baseline"
  echo "telemetry: wrote $baseline"
  exit 0
fi

if [ ! -f "$baseline" ]; then
  echo "telemetry: $baseline missing; run scripts/telemetry.sh --update" >&2
  exit 1
fi

# 2. Exact regression diff against the committed baseline. Threshold 0
# also compares the stdout digest, so any model drift fails here.
go run ./cmd/nwreport -diff -threshold 0 "$baseline" "$tmp/a-manifest.json"

# 3. Negative control: a perturbed run must trip the same gate.
run 99 p
if go run ./cmd/nwreport -diff -threshold 0 "$baseline" "$tmp/p-manifest.json" \
    > "$tmp/p-diff.txt" 2>&1; then
  echo "telemetry: seed-perturbed run passed the regression diff — the gate is not pinning anything" >&2
  cat "$tmp/p-diff.txt" >&2
  exit 1
fi

# 4. HTML report over the fresh run's artifacts.
report="${TELEMETRY_REPORT:-$tmp/report.html}"
go run ./cmd/nwreport -html "$report" \
  -manifest "$baseline" -manifest "$tmp/a-manifest.json" \
  -series "$tmp/a.ndjson"

echo "telemetry: ok"
