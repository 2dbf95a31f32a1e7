#!/bin/sh
# Tier-1 gate: everything must be gofmt-clean, build, vet clean, pass
# tests, and the simulation core must additionally pass under the race
# detector. CI (.github/workflows/ci.yml) runs exactly this script, so
# it is the single source of truth for what "green" means.
#
# staticcheck runs when the binary is on PATH (CI installs a pinned
# version; locally it is optional and skipped with a notice).
set -eux
cd "$(dirname "$0")/.."

fmt="$(gofmt -l .)"
if [ -n "$fmt" ]; then
  echo "gofmt: files need formatting:" >&2
  echo "$fmt" >&2
  exit 1
fi

go build ./...
go vet ./...
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
else
  echo "tier1: staticcheck not installed, skipping (CI runs it)" >&2
fi
go test ./...
go test -race ./internal/sim/... ./internal/disk/... ./internal/optical/... ./internal/exp/pool/... ./internal/machine/... ./internal/obs/... ./internal/core/... ./internal/sweep/... ./internal/guard/... ./internal/serve/... ./cmd/internal/cli/...
