#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it, passing every
# argument through. Run from the root of a checkout. Everything the
# build and the run write (Go's build cache and temp files, the binary,
# scratch checkpoints, span files) goes under .bench_build/ there.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f benchmark/main.go ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the module (go.mod, internal/, benchmark/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local

go build -o "$build/twig-benchmark" ./benchmark
exec "$build/twig-benchmark" "$@"
