#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload live --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write (compiler cache, temporary files,
# toolchain config, the binary, span dumps) stays under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	GOFLAGS=-mod=mod HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
