#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash stagebench/run.sh --workload band-edits --seed 1 --seconds 35 --trace 0
#
# The Go build cache, the binary and the run's temporary stream files all
# stay under .bench_build in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

go_bin="$(command -v go || echo /usr/local/go/bin/go)"
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$bench_dir" && "$go_bin" build -o "$out/stagebench" .)
exec "$out/stagebench" "$@"
