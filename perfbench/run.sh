#!/bin/sh
# Builds crhd and the benchmark program (perfbench) from the checkout in
# the current directory, then runs perfbench with the given arguments.
# Run it from the repository root:
#
#   sh perfbench/run.sh --workload resolve-cold --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build in that root:
# the Go build cache, temporary files, the two binaries, crhd's data
# directories and the span files of traced runs.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache"
GOMODCACHE="$build/gomodcache"
GOTMPDIR="$build/tmp"
TMPDIR="$build/tmp"
GOENV=off
GOFLAGS=
GOTOOLCHAIN=local
GOPROXY=off
export GOCACHE GOMODCACHE GOTMPDIR TMPDIR GOENV GOFLAGS GOTOOLCHAIN GOPROXY
go build -o "$build/crhd" ./cmd/crhd
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" -crhd "$build/crhd" "$@"
