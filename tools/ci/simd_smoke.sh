#!/usr/bin/env bash
# SIMD micro-bench: per-path scalar-vs-vector timing of the six host hot
# paths. bench_simd itself exits nonzero if any path's outputs diverge
# bitwise, or if the geomean speedup of the detected tier drops below
# scalar (gate 1.0 — on a scalar-only runner both tiers are scalar and the
# gate is trivially met). The report must hold one row per path, each
# bitwise identical.
#
# Usage: tools/ci/simd_smoke.sh BUILD_DIR WORK_DIR
#   BUILD_DIR holds bench/bench_simd; WORK_DIR receives BENCH_simd.json
#   (created if missing).
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD_DIR WORK_DIR" >&2
  exit 2
fi
bench="$1/bench/bench_simd"
work="$2"
mkdir -p "$work"

"$bench" --reps=5 --min-speedup=1.0 --json="$work/BENCH_simd.json"
python3 - "$work/BENCH_simd.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert len(report['rows']) == 6, report
for row in report['rows']:
    assert row['bitwise_identical'] is True, row
print('simd geomean speedup:', report['geomean_speedup'])
PY
