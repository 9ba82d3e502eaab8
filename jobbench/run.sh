#!/usr/bin/env bash
# Builds the job benchmark from this checkout's sources and runs it from
# the repository root. Build output and the Go build cache stay under
# .bench_build/ in the checkout.
#
#   bash jobbench/run.sh --workload shuffle-dist --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p .bench_build
go -C jobbench build -o ../.bench_build/jobbench .
exec .bench_build/jobbench "$@"
