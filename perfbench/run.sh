#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from
# the repository root. Everything the build and the run write stays
# under $CARGO_TARGET_DIR (default .bench_build).
set -eu
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
