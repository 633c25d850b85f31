#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): build ./bench from source
# inside the checkout, then run it with the driver's arguments. The binary, the
# Go build cache and the go command's own configuration directory are kept in
# .bench_build/ of the checkout, so nothing is read or written outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/pragbench" ./bench
exec "$out/pragbench" "$@"
