#!/usr/bin/env bash
# Continual-learning drill through the CLI (docs/online.md): synthesize a
# drift delta, run the retrain daemon clean and under chaos on a different
# devices x host-threads topology, and require the two final models to be
# byte-identical, the drift/online metrics artifacts to validate, and the
# warm-vs-cold retrain bench to hold its >= 2x simulated-makespan cut with
# every carried pair byte-identical and its sim fields equal to
# results/BENCH_retrain.json.
#
# Usage: tools/ci/retrain_smoke.sh BUILD_DIR WORK_DIR
#   BUILD_DIR holds examples/svm_tool, bench/bench_retrain and
#   tools/check_metrics; WORK_DIR receives the data, delta, models, logs,
#   metrics and BENCH_retrain.json (created if missing).
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD_DIR WORK_DIR" >&2
  exit 2
fi
svm_tool="$1/examples/svm_tool"
bench_retrain="$1/bench/bench_retrain"
check_metrics="$1/tools/check_metrics"
work="$2"
repo="$(cd "$(dirname "$0")/../.." && pwd)"
mkdir -p "$work/deltas"

# Generate a drifting dataset and delta.
python3 - "$work/drift.libsvm" <<'PY'
import random
import sys

rng = random.Random(5)
centers = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1.5, 1.5, 0)]
with open(sys.argv[1], 'w') as f:
    for cls, center in enumerate(centers):
        for _ in range(60):
            row = [v + rng.gauss(0, 0.35) for v in center]
            feats = ' '.join(f'{i + 1}:{v:.6f}'
                             for i, v in enumerate(row))
            f.write(f'{cls} {feats}\n')
print('wrote 240 rows, 4 classes')
PY
"$svm_tool" train -g 0.5 "$work/drift.libsvm" "$work/initial.model"
# Drift: 40 class-0 rows now belong to class 1; the incumbent keeps
# predicting the old label on them, so the Brier window must arm.
"$svm_tool" make-delta --relabel 40 --from 0 --to 1 \
  --seed 7 "$work/drift.libsvm" "$work/deltas/000_drift.delta"

# Retrain daemon, clean vs chaos (byte-identical models).
"$svm_tool" retrain-daemon \
  --delta-dir "$work/deltas" --brier-threshold 0.3 \
  --model-out "$work/clean.model" \
  --metrics-out "$work/retrain.prom" \
  "$work/drift.libsvm" "$work/initial.model" \
  | tee "$work/clean.log"
grep -q "swaps: 1 committed, 0 rollbacks" "$work/clean.log"
grep -q "served: .* (0 dropped)" "$work/clean.log"
# Same deltas under a seeded fault plan on a sharded topology:
# recovery must converge to the exact same model bytes. Seed 4 draws faults
# at the daemon's delta-parse and canary sites, so both retry loops run.
# (No chaos seed reaches the swap retry: FaultPlan::Chaos leaves
# swap_fail_prob at 0.)
"$svm_tool" retrain-daemon \
  --delta-dir "$work/deltas" --brier-threshold 0.3 \
  --chaos-seed 4 --devices 4 --host-threads 8 \
  --model-out "$work/chaos.model" \
  --metrics-out "$work/chaos.prom" \
  "$work/drift.libsvm" "$work/initial.model" \
  | tee "$work/chaos.log"
grep -q "chaos enabled (seed 4)" "$work/chaos.log"
grep -q "served: .* (0 dropped)" "$work/chaos.log"
grep -Eq "recovery: [1-9][0-9]* delta-parse retries, [1-9][0-9]* canary retries" \
  "$work/chaos.log"
cmp "$work/clean.model" "$work/chaos.model"
# The swapped-in model absorbed the drift, so it must differ from
# the incumbent it replaced. (A bare `! cmp` would not stop the script:
# errexit ignores a negated command.)
if cmp -s "$work/initial.model" "$work/clean.model"; then
  echo "error: the retrained model equals the initial model" >&2
  exit 1
fi

# Validate drift and online metrics.
"$check_metrics" "$work/retrain.prom" \
  gmpsvm_drift_brier gmpsvm_drift_armed_total \
  gmpsvm_online_deltas_applied_total gmpsvm_online_retrains_total \
  gmpsvm_online_swaps_total gmpsvm_online_requests_total \
  gmpsvm_online_canary_sampled_total
"$check_metrics" "$work/chaos.prom" \
  gmpsvm_drift_brier gmpsvm_online_swaps_total \
  gmpsvm_fault_injected_total

# Warm-vs-cold retrain bench (JSON). The binary itself fails unless the
# warm retrain cuts simulated makespan >= 2x and every carried pair is
# byte-identical.
"$bench_retrain" --json="$work/BENCH_retrain.json" | tee "$work/bench.log"
grep -q "Carried pairs byte-identical" "$work/bench.log"
python3 - "$work/BENCH_retrain.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert len(report['rows']) == 2, report
for row in report['rows']:
    assert row['train_sim_seconds'] > 0, row
    assert row['train_wall_seconds'] > 0, row
print('retrain rows:', len(report['rows']))
PY

# Simulated seconds and counters are deterministic, so every field but
# wall time must equal results/BENCH_retrain.json (rows matched by dataset
# and impl). A change that moves one is a behaviour change and must refresh
# the snapshot in the same commit.
python3 "$repo/tools/bench_diff.py" "$work/BENCH_retrain.json" \
  "$repo/results/BENCH_retrain.json"

echo "retrain smoke OK"
