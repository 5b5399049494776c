#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: runs the benchmark from the repository
# root with the Go build cache inside bench/out/, so that a run reads and
# writes nothing outside its checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/bench/out/gocache"
exec go run ./bench "$@"
