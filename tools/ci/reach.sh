#!/usr/bin/env bash
# Reachability probe: which functions in src/ does any program run?
#
# Builds the repository with --coverage -O0 and tests off, links
# gmpsvm_bench from bench/e2e's sources against that library (its objects
# go under WORK_DIR; nothing is written under bench/e2e), then drives every
# entry point that is not a unit test, 50 runs in all:
#   *  5 bench/e2e runs: the four workloads at --smoke, train-mnist also
#        traced;
#   * 25 bench runs: the 22 table/figure/ablation/system benches at
#        --scale=0.02, bench_serve_throughput --largek-only, bench_micro
#        and bench_simd;
#   *  7 examples;
#   *  2 svm_tool commands: CI's observability steps (train and serve with
#        metrics and traces);
#   *  6 tools/ci drills: retrain (CI's retrain steps: train, make-delta,
#        the clean and chaos daemon runs, bench_retrain), then fleet, chaos,
#        determinism, largek and simd;
#   *  5 svm_tool commands: predict, cv and scale on the retrain drill's
#        drift.libsvm and clean.model, grid and bench-env.
# It records each run's exit status in WORK_DIR/runs.tsv and prints, per
# src/ file, the functions gcov reports as never called, then their count.
# Functions defined in headers count once, summed over the translation
# units that emit them.
#
# Expect every run to exit 0 except simd_smoke: bench_simd's 1.0x geomean
# speedup floor is meant for optimized builds (it read 0.92x to 0.99x at
# -O0).
# On a 4-vCPU x86-64 VM the build took about 2 minutes and the runs about 4.
# It is neither a ctest nor a CI job. It needs g++, cmake, python3 and a
# gcov with JSON output (--json-format --stdout).
#
# Usage: tools/ci/reach.sh WORK_DIR
#   WORK_DIR receives the build, the run logs and outputs (created if
#   missing; a previous probe's counters there are discarded).
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 WORK_DIR" >&2
  exit 2
fi
repo="$(cd "$(dirname "$0")/../.." && pwd)"
mkdir -p "$1"
work="$(cd "$1" && pwd)"
build="$work/build"
logs="$work/logs"
out="$work/out"
mkdir -p "$logs" "$out" "$work/e2e"
jobs="$(nproc)"

echo "reach: building $repo with coverage into $build" >&2
cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS=--coverage \
  -DGMPSVM_BUILD_TESTS=OFF >"$logs/configure.log"
cmake --build "$build" -j "$jobs" >"$logs/build.log"
for src in gmpsvm_bench harness; do
  g++ -std=c++20 --coverage -O0 -g -ffp-contract=off -pthread \
    -I "$repo/src" -c "$repo/bench/e2e/$src.cc" -o "$work/e2e/$src.o"
done
g++ --coverage -pthread "$work/e2e/gmpsvm_bench.o" "$work/e2e/harness.o" \
  "$build/src/libgmpsvm.a" -o "$work/e2e/gmpsvm_bench"
find "$build" "$work/e2e" -name '*.gcda' -delete

: >"$work/runs.tsv"
# run NAME COMMAND...: runs one entry point, logging its output and status.
run() {
  local name="$1"
  shift
  local rc=0
  (cd "$out" && timeout 900 "$@") >"$logs/$name.log" 2>&1 || rc=$?
  printf '%s\t%s\n' "$name" "$rc" >>"$work/runs.tsv"
  echo "reach: $name exited $rc" >&2
}

e2e="$work/e2e/gmpsvm_bench"
for workload in train-mnist predict-largek serve-mnist retrain-k16; do
  run "e2e_$workload" "$e2e" --workload="$workload" --seed=1 --smoke \
    --json="$out/e2e_$workload.json"
done
run e2e_train-mnist_traced "$e2e" --workload=train-mnist --seed=1 --smoke \
  --json="$out/e2e_train-mnist_traced.json" --trace="$out/e2e_trace"

for bench in table2_datasets table3_efficiency table4_classifier \
    fig4_train_speedup fig5_predict_speedup fig6_buffer_size fig7_q_sweep \
    fig8_gtsvm fig9_ohdsvm fig10_gpusvm fig11_train_breakdown \
    fig12_predict_breakdown hyperparam_identity ablation_batch_rows \
    ablation_techniques ablation_buffer_policy ablation_ova \
    ablation_sigmoid_cv ablation_wss serve_throughput cluster_scaling \
    retrain; do
  run "bench_$bench" "$build/bench/bench_$bench" --scale=0.02
done
run bench_serve_throughput_largek "$build/bench/bench_serve_throughput" \
  --largek-only
run bench_micro "$build/bench/bench_micro" --benchmark_min_time=0.01
run bench_simd "$build/bench/bench_simd" --reps=1

for example in quickstart image_classification imbalanced_fraud \
    medical_retrieval model_selection serve_demo trace_training; do
  run "example_$example" "$build/examples/$example"
done

svm_tool="$build/examples/svm_tool"
cat >"$out/smoke.libsvm" <<'EOF'
0 1:0.9 3:0.2
1 2:0.8 4:0.3
2 1:0.1 2:0.9
0 1:0.8 4:0.1
1 2:0.7 3:0.4
2 1:0.2 2:0.8
0 1:1.0 3:0.1
1 2:0.9 4:0.2
2 1:0.3 2:0.7
0 1:0.7 3:0.3
1 2:0.6 4:0.4
2 1:0.4 2:0.6
EOF
run svm_tool_train_observed "$svm_tool" train -c 4 -g 0.5 \
  --metrics-out train.prom --trace-out train_trace.json smoke.libsvm smoke.model
run svm_tool_serve_observed "$svm_tool" serve -n 64 -w 2 -b 8 \
  --metrics-out serve.prom --trace-out serve_trace.json smoke.model
drill() {
  run "drill_$1" bash "$repo/tools/ci/${1}_smoke.sh" "$build" "$out/drill_$1"
}
drill retrain
drift="$out/drill_retrain/drift.libsvm"
run svm_tool_predict "$svm_tool" predict "$drift" \
  "$out/drill_retrain/clean.model" predictions.txt
run svm_tool_cv "$svm_tool" cv -g 0.5 -v 3 "$drift"
run svm_tool_grid "$svm_tool" grid -v 3 smoke.libsvm
run svm_tool_scale "$svm_tool" scale "$drift" drift.scaled
run svm_tool_bench_env "$svm_tool" bench-env

for name in fleet chaos determinism largek simd; do
  drill "$name"
done

echo "reach: $(wc -l <"$work/runs.tsv") runs; nonzero exits:" >&2
awk -F'\t' '$2 != 0' "$work/runs.tsv" >&2

# Never-called functions, from gcov's JSON over every library object (an
# object no program linked has no counters: all of its functions count as
# never called).
mkdir -p "$work/gcov"
rm -f "$work/gcov/"*.json
find "$build/src" -name '*.gcno' | sort | while read -r gcno; do
  (cd "$work/gcov" && gcov --json-format --stdout "$gcno" 2>/dev/null) \
    >"$work/gcov/$(basename "$gcno" .gcno).json" || true
done
python3 - "$repo/src/" "$work/gcov" <<'PY'
import collections
import json
import os
import sys

src_root, gcov_dir = sys.argv[1], sys.argv[2]
calls = collections.defaultdict(int)
for name in sorted(os.listdir(gcov_dir)):
    text = open(os.path.join(gcov_dir, name)).read()
    decoder = json.JSONDecoder()
    pos = 0
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        report, pos = decoder.raw_decode(text, pos)
        for entry in report.get('files', []):
            path = os.path.normpath(os.path.join(report.get('current_working_directory', ''),
                                                 entry['file']))
            if not path.startswith(src_root):
                continue
            for fn in entry.get('functions', []):
                key = (path[len(src_root):], fn['start_line'], fn['demangled_name'])
                calls[key] += fn['execution_count']
never = collections.defaultdict(list)
for (path, line, fn), count in sorted(calls.items()):
    if count == 0:
        never[path].append((line, fn))
for path in sorted(never):
    print(f'src/{path}')
    for line, fn in never[path]:
        print(f'  {line}: {fn}')
total = sum(len(v) for v in never.values())
print(f'never called: {total} of {len(calls)} functions in src/')
PY
