#!/bin/bash
# The benchmark's one command. With no arguments it runs a full set (every
# workload, tracing off and then traced) and prints the document -compare
# reads; BENCHMARK.json's driver passes
#   --workload W --seed N --seconds S --trace 0|1
# for one run and one result line. Everything built or written stays under
# bench/out, the go build cache and its temp files included.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/bench/out/gocache" GOTMPDIR="$PWD/bench/out/gotmp"
mkdir -p bench/out/bin "$GOTMPDIR"
(cd bench && go build -buildvcs=false -o out/bin/d2perf ./d2perf)
exec bench/out/bin/d2perf "$@"
