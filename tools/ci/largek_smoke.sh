#!/usr/bin/env bash
# Large-k cascade bench: a k = 64 model (2016 pairwise SVMs) served exact vs
# cascade. bench_serve_throughput itself fails if the cascade p50 exceeds
# 0.75x the exact p50 or if --cascade=exact diverges from the default
# predictor by one byte. (The gate was 0.5x before the SIMD tier, which sped
# the exact path up but not the cascade's per-row lazy kernel rows. Ratios
# are medians of 5 alternating rounds; see docs/cascade.md.) The report's
# deterministic fields must also equal the committed
# results/BENCH_largek.json; only its wall fields may differ.
#
# Usage: tools/ci/largek_smoke.sh BUILD_DIR WORK_DIR
#   BUILD_DIR holds bench/bench_serve_throughput; WORK_DIR receives
#   BENCH_largek.json (created if missing).
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD_DIR WORK_DIR" >&2
  exit 2
fi
bench="$1/bench/bench_serve_throughput"
work="$2"
committed="$(cd "$(dirname "$0")/../.." && pwd)/results/BENCH_largek.json"
mkdir -p "$work"

"$bench" --largek-only --largek-json="$work/BENCH_largek.json"
python3 - "$work/BENCH_largek.json" "$committed" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
with open(sys.argv[2]) as f:
    committed = json.load(f)
assert report['classes'] == 64, report
assert report['exact_mode_byte_identical'] is True, report
assert report['p50_ratio'] <= 0.75, report['p50_ratio']
assert 0.0 <= report['fallback_rate'] <= 1.0, report
for key in ('classes', 'num_pairs', 'pairs_evaluated_per_row',
            'fallback_rate', 'label_agreement', 'exact_mode_byte_identical'):
    assert report[key] == committed[key], (key, report[key], committed[key])
print('largek p50 ratio:', report['p50_ratio'],
      'fallback rate:', report['fallback_rate'])
PY
