#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload live --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory: the Go build and
# module caches, temporary build files, the binary, per-run state
# directories, and traced runs' span files. The build never fetches
# anything: the benchmark imports only the standard library and the
# repository's own module.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f benchmark/go.mod ]; then
	echo "benchmark/run.sh: run from the repository root (go.mod and benchmark/go.mod must exist)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd benchmark && go build -o "$out/ipinbench" .)
exec "$out/ipinbench" "$@"
