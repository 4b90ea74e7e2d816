#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload gradesheet --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes (Go build cache, binary, run records,
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
