#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; arguments pass through to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload whole-fastq6 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write — the Go build cache, the
# binary, the cached corpus and the trace files — stays under
# .bench_build in the checkout.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/home"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
