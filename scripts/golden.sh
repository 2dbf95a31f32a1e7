#!/bin/sh
# Determinism gate: run the full fixed-seed evaluation and the explicit
# file-I/O example, and compare their output digests against the
# committed golden values. Any drift — an intentional model change or an
# accidental nondeterminism — fails the check until the golden files are
# regenerated.
#
# Usage:
#   scripts/golden.sh            verify against the committed digests
#   scripts/golden.sh --update   regenerate them
#
# testdata/golden.digest is the manifest's "sha256:<hex>" over the exact
# stdout bytes of `nwbench -all -q -seed 1` (scale 1.0); the script also
# recomputes it independently from the captured output so the manifest
# tee itself is cross-checked. `nwbench -all` issues no file I/O, so
# testdata/explicit-io.digest pins the stdout of `go run
# ./examples/explicit-io`, whose explicit writes take the disk's
# NACK -> OK -> resend path.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# sha256 prints "sha256:<hex>" of a file (sha256sum on Linux/CI, shasum
# on macOS), or nothing when neither tool exists.
sha256() {
  if command -v sha256sum >/dev/null 2>&1; then
    echo "sha256:$(sha256sum "$1" | cut -d' ' -f1)"
  elif command -v shasum >/dev/null 2>&1; then
    echo "sha256:$(shasum -a 256 "$1" | cut -d' ' -f1)"
  fi
}

# check NAME FILE DIGEST writes DIGEST to FILE under --update and
# otherwise compares it against FILE's contents.
check() {
  if [ "${update:-}" = 1 ]; then
    mkdir -p testdata
    printf '%s\n' "$3" > "$2"
    echo "golden: wrote $2 ($3)"
    return
  fi
  if [ ! -f "$2" ]; then
    echo "golden: $2 missing; run scripts/golden.sh --update" >&2
    exit 1
  fi
  want="$(cat "$2")"
  if [ "$3" != "$want" ]; then
    echo "golden: $1 output drift detected" >&2
    echo "  want $want" >&2
    echo "  got  $3" >&2
    echo "If the change is intentional, regenerate with scripts/golden.sh --update" >&2
    exit 1
  fi
  echo "golden: $1 ok ($3)"
}

update=""
if [ "${1:-}" = "--update" ]; then
  update=1
fi

go run ./cmd/nwbench -all -q -seed 1 -manifest-out "$tmp/manifest.json" > "$tmp/out.txt"

digest="$(sed -n 's/.*"digest": "\(sha256:[0-9a-f]*\)".*/\1/p' "$tmp/manifest.json")"
if [ -z "$digest" ]; then
  echo "golden: no digest in manifest" >&2
  exit 1
fi

# Cross-check the manifest digest against an independent hash of the
# captured bytes.
raw="$(sha256 "$tmp/out.txt")"
if [ -n "$raw" ] && [ "$raw" != "$digest" ]; then
  echo "golden: manifest digest $digest disagrees with $raw of captured output" >&2
  exit 1
fi
check nwbench testdata/golden.digest "$digest"

go run ./examples/explicit-io > "$tmp/explicit-io.txt"
digest="$(sha256 "$tmp/explicit-io.txt")"
if [ -z "$digest" ]; then
  echo "golden: no sha256 tool to hash the explicit-io output" >&2
  exit 1
fi
check explicit-io testdata/explicit-io.digest "$digest"
