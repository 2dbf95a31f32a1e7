#!/bin/sh
# Fuzz smoke (CI job: fuzz-smoke).
#
# Runs each native fuzz target for a short budget — enough to shake out
# parser regressions on every push without burning CI minutes. The
# targets pin two properties per parser: arbitrary input never panics,
# and accepted input reaches a canonical fixpoint (grid specs via
# Canon, fault plans via String, Chrome traces and binary op traces via
# a write/read round trip); the nwtrace analysis must not panic on any
# trace the Chrome reader accepts. Override FUZZTIME for longer local
# campaigns:
#
#	FUZZTIME=10m scripts/fuzz.sh
set -eux
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-20s}"

go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime "$FUZZTIME" ./internal/sweep/
go test -run '^$' -fuzz '^FuzzParsePlan$' -fuzztime "$FUZZTIME" ./internal/fault/
go test -run '^$' -fuzz '^FuzzReadChrome$' -fuzztime "$FUZZTIME" ./internal/obs/
go test -run '^$' -fuzz '^FuzzAnalyze$' -fuzztime "$FUZZTIME" ./cmd/nwtrace/
go test -run '^$' -fuzz '^FuzzReadEvents$' -fuzztime "$FUZZTIME" ./internal/obs/
go test -run '^$' -fuzz '^FuzzReadOpTrace$' -fuzztime "$FUZZTIME" ./internal/workload/
