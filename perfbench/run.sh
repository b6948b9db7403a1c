#!/usr/bin/env bash
# Builds the benchmark and bivd from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under the build
# directory ($CARGO_TARGET_DIR if set, else .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/bivd" beyondiv/cmd/bivd) >&2
exec "$out/perfbench" -root "$root" -work "$out/work" -bivd "$out/bivd" "$@"
