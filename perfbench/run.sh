#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build and run file goes under $CARGO_TARGET_DIR (default
# .bench_build). See perfbench/README.md.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gotmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/gotmp \
    GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
