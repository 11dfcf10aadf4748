#!/usr/bin/env bash
# Determinism drill through the CLI: the same data trained (and predicted)
# under every configuration knob that must not change a byte.
#   * host threads 1 vs 8, clean and under a chaos plan;
#   * devices 1 vs 4, clean and under a chaos plan that includes device
#     loss;
#   * nodes 1 vs 2 with forced intra-pair sharding (--max-shards 4), clean
#     and under a chaos plan whose node-loss stream fells node 1, plus the
#     --nodes > --devices usage error;
#   * SIMD tier scalar vs auto, for both train and predict, and a tier the
#     tool does not have as a usage error;
#   * the prediction cascade at host threads 1 vs 8 and SIMD tier scalar vs
#     auto, --cascade exact against the default predictor, the exact
#     fallback on every row (--cascade-band 1) on both tiers, and malformed
#     cascade values as usage errors.
# Every model and prediction file must be cmp-equal to its reference.
#
# Usage: tools/ci/determinism_smoke.sh BUILD_DIR WORK_DIR
#   BUILD_DIR holds examples/svm_tool; WORK_DIR receives the data, models,
#   predictions and logs (created if missing).
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD_DIR WORK_DIR" >&2
  exit 2
fi
svm_tool="$1/examples/svm_tool"
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

# Host-threads determinism cross-check.
"$svm_tool" train -c 4 -g 0.5 --host-threads 1 \
  "$work/smoke.libsvm" "$work/t1.model"
"$svm_tool" train -c 4 -g 0.5 --host-threads 8 \
  "$work/smoke.libsvm" "$work/t8.model"
cmp "$work/t1.model" "$work/t8.model"
# The chaos path falls back to serial pair orchestration but still
# threads op bodies; the chaotic model must also be invariant.
"$svm_tool" train -c 4 -g 0.5 --chaos-seed 7 --host-threads 1 \
  "$work/smoke.libsvm" "$work/c1.model"
"$svm_tool" train -c 4 -g 0.5 --chaos-seed 7 --host-threads 8 \
  "$work/smoke.libsvm" "$work/c8.model"
cmp "$work/c1.model" "$work/c8.model"

# Device-count determinism cross-check.
# Sharding the pair problems across 4 simulated devices must not
# change a single model byte — clean or under a chaos plan that
# includes device loss (docs/scaling.md).
"$svm_tool" train -c 4 -g 0.5 --devices 1 \
  "$work/smoke.libsvm" "$work/d1.model"
"$svm_tool" train -c 4 -g 0.5 --devices 4 \
  "$work/smoke.libsvm" "$work/d4.model"
cmp "$work/d1.model" "$work/d4.model"
"$svm_tool" train -c 4 -g 0.5 --chaos-seed 7 --devices 4 \
  "$work/smoke.libsvm" "$work/d4c.model"
cmp "$work/d1.model" "$work/d4c.model"

# Multi-node determinism cross-check.
# Grouping the 4 devices into 2 simulated nodes and forcing
# intra-pair instance sharding must not change a model byte either
# — clean, and under a chaos plan whose node-loss stream fells
# node 1 (seed 3), which exercises the orphan-shard reschedule
# (docs/scaling.md).
"$svm_tool" train -c 4 -g 0.5 \
  --devices 4 --nodes 1 --max-shards 4 \
  "$work/smoke.libsvm" "$work/n1.model"
"$svm_tool" train -c 4 -g 0.5 \
  --devices 4 --nodes 2 --max-shards 4 \
  "$work/smoke.libsvm" "$work/n2.model" | tee "$work/n2.log"
grep -q "pairs sharded" "$work/n2.log"
cmp "$work/d1.model" "$work/n1.model"
cmp "$work/d1.model" "$work/n2.model"
"$svm_tool" train -c 4 -g 0.5 --chaos-seed 3 \
  --devices 4 --nodes 2 --max-shards 4 \
  "$work/smoke.libsvm" "$work/n2c.model" | tee "$work/n2c.log"
grep -q "nodes lost" "$work/n2c.log"
cmp "$work/d1.model" "$work/n2c.model"
# Strict flag validation: more nodes than devices is a usage error.
if "$svm_tool" train --devices 2 --nodes 3 \
  "$work/smoke.libsvm" "$work/bad.model"; then
  echo "expected usage error" && exit 1
else
  test $? -eq 2
fi

# SIMD tier determinism cross-check.
# The vector tier is a wall-clock knob only: training and
# predicting with --simd=scalar and --simd=auto (the detected
# tier) must produce byte-identical model files and predictions
# (docs/performance.md).
"$svm_tool" train -c 4 -g 0.5 --simd=scalar \
  "$work/smoke.libsvm" "$work/s.model"
"$svm_tool" train -c 4 -g 0.5 --simd=auto \
  "$work/smoke.libsvm" "$work/v.model"
cmp "$work/s.model" "$work/v.model"
"$svm_tool" predict --simd=scalar \
  "$work/smoke.libsvm" "$work/s.model" "$work/s.pred"
"$svm_tool" predict --simd=auto \
  "$work/smoke.libsvm" "$work/v.model" "$work/v.pred"
cmp "$work/s.pred" "$work/v.pred"
"$svm_tool" bench-env
# aarch64 runs the scalar tier, so the tool has no tier named after its
# vector unit: asking for one is a usage error that names it.
if "$svm_tool" --simd=neon bench-env 2> "$work/simd.err"; then
  echo "expected usage error for --simd=neon" && exit 1
else
  test $? -eq 2
fi
grep -q "unknown simd tier 'neon'" "$work/simd.err"

# Cascade determinism cross-check.
# The elimination cascade is invariant to host threads and the SIMD
# tier too, and --cascade exact is the default predictor byte for byte
# (docs/cascade.md).
"$svm_tool" predict --cascade eliminate --host-threads 1 \
  "$work/smoke.libsvm" "$work/s.model" "$work/e1.pred"
"$svm_tool" predict --cascade eliminate --host-threads 8 \
  "$work/smoke.libsvm" "$work/s.model" "$work/e8.pred"
cmp "$work/e1.pred" "$work/e8.pred"
"$svm_tool" predict --simd=scalar --cascade eliminate \
  "$work/smoke.libsvm" "$work/s.model" "$work/es.pred"
"$svm_tool" predict --simd=auto --cascade eliminate \
  "$work/smoke.libsvm" "$work/s.model" "$work/ev.pred"
cmp "$work/es.pred" "$work/ev.pred"
"$svm_tool" predict --cascade exact \
  "$work/smoke.libsvm" "$work/s.model" "$work/x.pred"
cmp "$work/s.pred" "$work/x.pred"
# The cascade's exact fallback: band 1 sends every row back through the
# exact predictor, on both tiers. The predictions file prints %g, so this
# checks that the fallback runs and keeps the labels; cascade_test holds
# its probabilities bitwise.
for tier in scalar auto; do
  "$svm_tool" predict --simd=$tier --cascade eliminate --cascade-band 1 \
    "$work/smoke.libsvm" "$work/s.model" "$work/f_$tier.pred" \
    | tee "$work/f_$tier.log"
  grep -q "12 exact fallbacks" "$work/f_$tier.log"
  cmp "$work/s.pred" "$work/f_$tier.pred"
done
# Strict flag validation: a malformed cascade value is a usage error.
for flag in "--cascade-budget 2x" "--cascade-threshold xyz" \
  "--cascade-band abc"; do
  # shellcheck disable=SC2086  # $flag is a flag and its value
  if "$svm_tool" predict --cascade eliminate $flag \
    "$work/smoke.libsvm" "$work/s.model" "$work/bad.pred"; then
    echo "expected usage error for $flag" && exit 1
  else
    test $? -eq 2
  fi
done

echo "determinism smoke OK"
