#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash ycsbbench/run.sh --workload ycsb-b-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binary, and the full reports and span files in ycsbbench-out/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/ycsbbench-out"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/ycsbbench" && go build -o "$build/ycsbbench" .)
exec "$build/ycsbbench" --out "$build/ycsbbench-out" "$@"
