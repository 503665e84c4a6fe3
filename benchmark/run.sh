#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the checkout root (the Go build cache lives there too, so
# nothing is written outside the checkout) and runs it from benchmark/.
# go build relinks only when a source file changed, so repeat runs start fast.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go build -o "$build/s2rdf-benchmark" .
exec "$build/s2rdf-benchmark" "$@"
