#!/usr/bin/env bash
# Builds the benchmark from source in the checkout, then runs it:
#
#   bash sapbench/run.sh --workload typeahead --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache, temporary files and the
# binary) stays under .bench_build/ in the directory it is started from.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
export GOPATH="$out/gopath" GOPROXY=off GOWORK=off
go -C "$root/sapbench" build -o "$out/sapbench" . >&2
exec "$out/sapbench" "$@"
