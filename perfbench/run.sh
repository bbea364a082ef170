#!/usr/bin/env bash
# Builds the ETL benchmark from the source tree around it and runs it; every
# argument is passed through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload optimize --seed 1 --seconds 15 --trace 0
#
# Build products, the Go build cache and temporary files stay under
# .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=readonly GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
