#!/usr/bin/env bash
# ThreadSanitizer over the concurrency-heavy suites: the serving stack, whose
# workers are plain std::threads (server_test and the serve suites), the
# fault-injection paths that mutate shared state under load, the thread pool
# and its one work-based split, ParallelFor, which splits an op body only
# when the flops it charges make two chunks of kMinChunkFlops
# (thread_pool_test), op-level threading in training
# (pair_parallel_trainer_test and the determinism suites), the cluster layer
# (one trainer thread per device, the replica router), the predictor at 4
# host threads (predictor_test, predict_pin_test), whose per-call streams
# are created and retired on the calling thread and whose 16-, 8- and 4-row
# panels the pool splits, each thread with its own panel and coupling
# scratch, and the kernel-row panels that BatchRowDots2 splits across the
# pool, each thread in its own workspace (ops_test, simd_test, kernel_test).
#
# Usage: tools/ci/tsan.sh BUILD_DIR
#   Configures BUILD_DIR with -DGMPSVM_SANITIZE=thread (benchmarks and
#   examples off: no suite below needs them), builds it and runs the suites.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
build="$1"
root="$(cd "$(dirname "$0")/../.." && pwd)"

cmake -B "$build" -S "$root" -DGMPSVM_SANITIZE=thread \
  -DGMPSVM_BUILD_BENCHMARKS=OFF -DGMPSVM_BUILD_EXAMPLES=OFF
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)" -R \
  '^(thread_pool_test|request_queue_test|model_registry_test|serve_stats_test|server_test|hot_swap_stress_test|registry_swap_stress_test|chaos_serve_test|fault_injector_test|chaos_train_test|pair_parallel_trainer_test|pair_engine_pin_test|host_determinism_test|pair_scheduler_test|cluster_trainer_test|replica_router_test|cv_grid_determinism_test|cluster_determinism_test|cascade_determinism_test|quota_test|fleet_server_test|sv_store_determinism_test|warm_retrain_test|retrain_daemon_test|predictor_test|predict_pin_test|ops_test|simd_test|kernel_test)$'
