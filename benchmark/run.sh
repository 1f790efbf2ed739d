#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it there:
#
#   bash benchmark/run.sh --workload paced_mix --seed 7 --seconds 20 --trace 0
#
# Everything it writes stays inside the checkout: the Go build and module
# caches, the binary and the store directories go under .bench_build/, span
# files under benchmark/out/. Outside a checkout (no go.mod beside the benchmark
# directory) it fails before writing anything.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/benchmark" ]]; then
	echo "benchmark/run.sh: run from the root of a checkout (no go.mod in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOENV=off GOFLAGS=
# The checkout is not a repository of its own, and one above it is not
# this program's history.
go build -buildvcs=false -o "$build/cdas-benchmark" ./benchmark
exec "$build/cdas-benchmark" -tmp "$build/tmp" "$@"
