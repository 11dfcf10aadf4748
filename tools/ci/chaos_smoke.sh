#!/usr/bin/env bash
# Chaos drill through the CLI: train under a seeded fault plan (must
# produce the exact same model as the fault-free run), checkpoint and
# resume (also byte-identical), then serve under chaos and require every
# accepted request to be answered. The train and serve metrics must carry
# the fault counters.
#
# Usage: tools/ci/chaos_smoke.sh BUILD_DIR WORK_DIR
#   BUILD_DIR holds examples/svm_tool and tools/check_metrics; WORK_DIR
#   receives the data, models, checkpoints, logs and metrics (created if
#   missing).
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD_DIR WORK_DIR" >&2
  exit 2
fi
svm_tool="$1/examples/svm_tool"
check_metrics="$1/tools/check_metrics"
work="$2"
mkdir -p "$work"

cat > "$work/smoke.libsvm" <<'EOF'
0 1:0.9 3:0.2
0 1:1.1 2:0.1
0 1:0.8 4:0.3
0 1:1.0 2:0.2 4:0.1
1 2:1.0 3:0.4
1 2:0.9 4:0.2
1 2:1.2
1 1:0.1 2:1.1 3:0.1
2 3:1.0 4:0.5
2 1:0.2 3:0.8
2 3:1.1 4:0.1
2 2:0.1 3:0.9
EOF

# Fault-free reference model.
"$svm_tool" train -c 4 -g 0.5 \
  "$work/smoke.libsvm" "$work/clean.model"
# Chaos run: transient faults injected, retries must recover to a
# byte-identical model (exit 3 would mean degraded pairs).
"$svm_tool" train -c 4 -g 0.5 --chaos-seed 7 \
  --metrics-out "$work/train.prom" \
  "$work/smoke.libsvm" "$work/chaos.model"
cmp "$work/clean.model" "$work/chaos.model"
# Checkpoint, then resume: also byte-identical.
"$svm_tool" train -c 4 -g 0.5 \
  --checkpoint-dir "$work/ckpt" \
  "$work/smoke.libsvm" "$work/ckpt.model"
"$svm_tool" train -c 4 -g 0.5 \
  --checkpoint-dir "$work/ckpt" --resume \
  "$work/smoke.libsvm" "$work/resumed.model" | tee "$work/resume.log"
grep -q "3 pairs resumed" "$work/resume.log"
cmp "$work/clean.model" "$work/resumed.model"

# Serve under chaos.
set +e
"$svm_tool" serve -n 300 -w 2 -b 8 --chaos-seed 11 \
  --metrics-out "$work/serve.prom" \
  "$work/chaos.model" | tee "$work/serve.log"
rc=${PIPESTATUS[0]}
set -e
# 0 = all answered OK; 3 = some answered with an error status —
# both mean no accepted request was dropped. Anything else is fatal.
test "$rc" -eq 0 -o "$rc" -eq 3
# Zero dropped requests: every accepted request got a terminal
# response.
grep -q "answered 300/300 requests" "$work/serve.log"

# Validate fault metrics.
"$check_metrics" "$work/train.prom" \
  gmpsvm_fault_injected_total gmpsvm_train_pair_retries_total
"$check_metrics" "$work/serve.prom" \
  gmpsvm_fault_injected_total gmpsvm_serve_faults_total \
  gmpsvm_serve_effective_max_batch

echo "chaos smoke OK"
