#!/usr/bin/env bash
# Builds seerd and perfbench from this checkout, then runs perfbench
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload live-ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes under
# .bench_build/perfbench: the Go build cache, temporary files, the two
# binaries, per-run scratch directories and the traced runs' span files.
set -euo pipefail
out=$(pwd)/.bench_build/perfbench
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/seerd" ./cmd/seerd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -seerd "$out/seerd" -work "$out" "$@"
