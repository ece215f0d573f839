#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload fig10-grid --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                       # every workload, one child process each
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory: the Go build cache and configuration, the
# binary, temporary stores and trace files. The build uses the local
# toolchain and no module proxy; the benchmark has no dependencies
# outside the repository.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
