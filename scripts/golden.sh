#!/bin/sh
# Determinism gate: run the full fixed-seed evaluation and compare its
# output digest against the committed golden value. Any drift — an
# intentional model change or an accidental nondeterminism — fails the
# check until the golden file is regenerated.
#
# Usage:
#   scripts/golden.sh            verify against testdata/golden.digest
#   scripts/golden.sh --update   regenerate testdata/golden.digest
#
# The digest is the manifest's "sha256:<hex>" over the exact stdout
# bytes of `nwbench -all -q -seed 1` (scale 1.0); the script also
# recomputes it independently from the captured output so the manifest
# tee itself is cross-checked.
set -eu
cd "$(dirname "$0")/.."

golden="testdata/golden.digest"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/nwbench -all -q -seed 1 -manifest-out "$tmp/manifest.json" > "$tmp/out.txt"

digest="$(sed -n 's/.*"digest": "\(sha256:[0-9a-f]*\)".*/\1/p' "$tmp/manifest.json")"
if [ -z "$digest" ]; then
  echo "golden: no digest in manifest" >&2
  exit 1
fi

# Cross-check the manifest digest against an independent hash of the
# captured bytes (sha256sum on Linux/CI, shasum on macOS).
if command -v sha256sum >/dev/null 2>&1; then
  raw="$(sha256sum "$tmp/out.txt" | cut -d' ' -f1)"
elif command -v shasum >/dev/null 2>&1; then
  raw="$(shasum -a 256 "$tmp/out.txt" | cut -d' ' -f1)"
else
  raw=""
fi
if [ -n "$raw" ] && [ "sha256:$raw" != "$digest" ]; then
  echo "golden: manifest digest $digest disagrees with sha256:$raw of captured output" >&2
  exit 1
fi

if [ "${1:-}" = "--update" ]; then
  mkdir -p testdata
  printf '%s\n' "$digest" > "$golden"
  echo "golden: wrote $golden ($digest)"
  exit 0
fi

if [ ! -f "$golden" ]; then
  echo "golden: $golden missing; run scripts/golden.sh --update" >&2
  exit 1
fi
want="$(cat "$golden")"
if [ "$digest" != "$want" ]; then
  echo "golden: output drift detected" >&2
  echo "  want $want" >&2
  echo "  got  $digest" >&2
  echo "If the change is intentional, regenerate with scripts/golden.sh --update" >&2
  exit 1
fi
echo "golden: ok ($digest)"
