#!/bin/bash
# A/A: run two full sets of the same commit and compare them. Every row
# should read "within"; a "worse" means the bounds are tighter than this
# machine can resolve, an "unresolved" that a metric's own windows disagree.
set -euo pipefail
cd "$(dirname "$0")/.."
bash bench/run.sh -out bench/out/A.json "$@"
bash bench/run.sh -out bench/out/B.json "$@"
bash bench/run.sh -compare bench/out/A.json bench/out/B.json
