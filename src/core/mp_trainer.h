// MP-SVM trainers (Section 3).
//
// Two training strategies over the same substrate:
//   * SequentialMpTrainer — the paper's GPU baseline (Section 3.2) when run
//     against the GPU model with a device-resident kernel cache, and the
//     LibSVM reference when run against a CPU model: binary SVMs trained one
//     by one with classic SMO, sigmoids fitted one at a time.
//   * GmpSvmTrainer — GMP-SVM (Section 3.3): batched working-set solver,
//     GPU kernel buffer, multiple binary SVMs trained concurrently on
//     SM-capped streams, kernel-block sharing between SVMs, and concurrent
//     sigmoid fitting. Run against a CPU model this is CMP-SVM.
//
// Both produce the same MpSvmModel (Table 4's classifier-identity claim);
// they differ in the resources they consume, which the report captures.

#ifndef GMPSVM_CORE_MP_TRAINER_H_
#define GMPSVM_CORE_MP_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/dataset.h"
#include "core/model.h"
#include "core/model_io.h"
#include "device/executor.h"
#include "fault/retry.h"
#include "prob/platt.h"
#include "solver/batch_smo_solver.h"
#include "solver/smo_solver.h"
#include "solver/solver_stats.h"

namespace gmpsvm {

namespace fault {
class FaultInjector;
}  // namespace fault

// What a trainer does with a binary pair whose transient faults outlasted the
// retry policy.
enum class PairFailurePolicy {
  // Abort the whole training run with the pair's kUnavailable status.
  kFailFast,
  // Emit a neutral entry for the pair (no support vectors, bias 0, sigmoid
  // {0, 0} => p = 0.5), mark the model degraded, and keep going. The report
  // counts such pairs and checkpoints tag them so a resume retrains them.
  kSkipDegraded,
};

// Periodic checkpointing of completed binary pairs through model_io.
struct TrainCheckpointOptions {
  // Directory for the manifest + per-pair files; empty disables
  // checkpointing. Created if missing. Each completed pair's file is written
  // and the manifest flushed as the pair completes; the manifest is also
  // flushed at the end of the run and on a fault-plan interrupt.
  std::string dir;

  // Load the manifest in `dir` and skip its completed (non-degraded) pairs.
  // Rejected with InvalidArgument if the manifest's fingerprint does not
  // match this dataset + configuration. A missing manifest starts fresh.
  bool resume = false;
};

struct MpTrainOptions {
  double c = 1.0;
  KernelParams kernel;

  // Optional per-class penalty multipliers (LibSVM's -wi): instance of class
  // k gets box constraint c * class_weights[k]. Empty = all ones. Weighting
  // minority classes up counters class imbalance.
  std::vector<double> class_weights;

  // --- GMP-SVM (batched) solver configuration -----------------------------
  BatchSmoOptions batch;

  // Train up to this many binary SVMs concurrently (each on a stream owning
  // 1/group of the SMs). Effective group size also respects the device
  // memory budget. 1 disables MP-level concurrency (ablation).
  int max_concurrent_svms = 8;

  // Share kernel class-block segments across binary SVMs (Figure 3).
  bool share_kernel_blocks = true;

  // Device bytes reserved for the shared block cache.
  size_t shared_cache_bytes = 2ull << 30;

  // Deduplicate support vectors across SVMs in the model pool.
  bool share_support_vectors = true;

  // --- Sequential (baseline) solver configuration --------------------------
  SmoOptions smo;

  // --- Sigmoid fitting ------------------------------------------------------
  PlattOptions platt;
  // Backtracking candidates evaluated concurrently (1 = baseline behaviour).
  int platt_parallel_candidates = 8;

  // 0 (default, the paper's Algorithm 2): fit each sigmoid on the training
  // decision values, which fall out of the solver for free. >= 2: fit on
  // decision values from an internal stratified cross-validation per binary
  // problem (stock LibSVM uses 5) — better calibrated, ~folds x more binary
  // training work.
  int sigmoid_cv_folds = 0;

  // --- Fault recovery -------------------------------------------------------
  // Per-pair retry policy for transient (kUnavailable) failures. Backoff is
  // charged as simulated time to the pair's stream, so retried runs stay
  // deterministic and produce byte-identical models.
  fault::RetryPolicy pair_retry;

  // What to do when a pair exhausts its retries.
  PairFailurePolicy pair_failure_policy = PairFailurePolicy::kFailFast;

  // Checkpoint/resume configuration (disabled unless checkpoint.dir is set).
  TrainCheckpointOptions checkpoint;

  // --- Host parallelism -----------------------------------------------------
  // Real worker threads for pair-level training (wall-clock only; models,
  // reports, counters, and traces are byte-identical for every value — see
  // docs/performance.md). 0 inherits the executor model's host_threads; 1
  // forces serial orchestration. Pairs fork/join across the threads under
  // one rule, on a single device and on each cluster device alike: no fault
  // injector, attached or per pair (fault draws are consumed in pair order),
  // and no shared block cache (its hit/miss accounting depends on the order
  // pairs touch it), so GMP needs share_kernel_blocks off. The
  // data-parallel kernel ops still use the threads otherwise.
  int host_threads = 0;

  // Checks the whole configuration, including the nested batch- and
  // classic-solver options, and returns InvalidArgument naming the
  // offending field. Pass the dataset's class count to also check
  // class_weights (0 skips that check when no dataset is at hand). Both
  // trainers call this before touching the data.
  Status Validate(int num_classes = 0) const;
};

struct MpTrainReport {
  // Simulated seconds from training start to model completion.
  double sim_seconds = 0.0;
  // Host wall-clock seconds (diagnostic; the benchmarked quantity is
  // sim_seconds).
  double wall_seconds = 0.0;

  // Aggregated binary-solver statistics (all pairs).
  SolverStats solver;

  // Simulated-time attribution: "kernel_values", "subproblem", "other",
  // "sigmoid". Figure 11 is generated from this.
  PhaseTimer phases;

  // Device counters snapshot deltas over the training run.
  int64_t kernel_values_computed = 0;
  int64_t kernel_values_reused = 0;
  size_t peak_device_bytes = 0;

  // Fault recovery: whole-pair retry attempts after transient failures,
  // pairs that exhausted retries under kSkipDegraded (the model carries
  // neutral entries for them), and pairs loaded from a checkpoint instead of
  // being trained.
  int64_t pair_retries = 0;
  int64_t pairs_degraded = 0;
  int64_t pairs_resumed = 0;

  // Publishes this report into `registry` under gmpsvm_train_* names:
  // sim/wall seconds, solver iteration counters, per-phase sim-time
  // counters labeled {phase=...}, and the kernel-value counters.
  void PublishTo(obs::MetricsRegistry* registry) const;
};

// An executor's state when a training run starts, taken after synchronizing
// it, so FinishTrainReport charges the run alone even on a reused executor.
struct TrainRunStart {
  explicit TrainRunStart(SimExecutor* executor);
  Stopwatch wall;
  double sim_seconds = 0.0;
  ExecutorCounters counters;
};

// Synchronizes `executor` and, when `report` is non-null, fills its
// simulated and wall seconds, kernel-value counters and peak device memory
// since `start`.
void FinishTrainReport(const TrainRunStart& start, SimExecutor* executor,
                       MpTrainReport* report);

// --- Pair-engine building blocks (core/pair_engine.h, src/cluster) ----------
//
// Cluster training splits the k(k-1)/2 pairwise problems across devices:
// each device trains its subset through the pair engine, then the per-pair
// results are stitched back together — in global ClassPairs() order,
// because support-vector pool indices depend on insertion order — with
// AssembleModelFromPairs. Pair solutions are schedule-invariant (the kernel
// math is exact), so the assembled model is byte-identical to a single-device
// GmpSvmTrainer run whatever the assignment.

// One trained pair plus the statistics a multi-device caller merges in global
// ClassPairs() order. The sim-time fields (stats.phases, sigmoid_seconds)
// depend on the stream shares of the run that produced them; the counter
// fields (iterations, kernel rows, retries) are schedule-invariant.
struct PairTrainOutcome {
  size_t pair_index = 0;
  PairCheckpoint checkpoint;
  SolverStats stats;
  double sigmoid_seconds = 0.0;
  bool sigmoid_done = false;
  int64_t retries = 0;
  bool degraded = false;
};

// Optional per-pair fault-injector factory for chaos cluster runs: deriving
// one injector per pair (seeded from the pair index) keeps fault sequences
// pair-deterministic regardless of which device trains the pair. Returning
// nullptr for a pair trains it fault-free. The returned injector is attached
// to the executor only for that pair's attempts.
using PairFaultInjectorFactory =
    std::function<std::unique_ptr<fault::FaultInjector>(size_t pair_index)>;

// Optional warm-start provider: returns the seed alphas for a pair's problem
// (one per problem row, mapped onto the new problem's row order), or an empty
// vector to solve cold. The online pipeline derives the seeds from the
// previous model's PairCheckpoint; the seeds are clamped into the box and
// constraint-repaired by BatchSmoSolver::Solve, so any previous solution
// of overlapping data is a legal seed. Called once per pair before its first
// attempt; cluster devices call it concurrently.
using PairWarmStartProvider =
    std::function<std::vector<double>(size_t pair_index,
                                      const BinaryProblem& problem)>;

// InvalidArgument unless `pairs_in_order` holds one checkpoint per dataset
// pair, labeled in ClassPairs() order.
Status CheckPairOrder(const Dataset& dataset,
                      const std::vector<PairCheckpoint>& pairs_in_order);

// Assembles the final model from per-pair checkpoints given in ClassPairs()
// order. Rejects a vector that fails CheckPairOrder.
Result<MpSvmModel> AssembleModelFromPairs(
    const Dataset& dataset, const MpTrainOptions& options,
    const std::vector<PairCheckpoint>& pairs_in_order);

class GmpSvmTrainer {
 public:
  explicit GmpSvmTrainer(const MpTrainOptions& options) : options_(options) {}

  // Trains the full MP-SVM model. `report` may be null.
  Result<MpSvmModel> Train(const Dataset& dataset, SimExecutor* executor,
                           MpTrainReport* report) const;

 private:
  MpTrainOptions options_;
};

class SequentialMpTrainer {
 public:
  explicit SequentialMpTrainer(const MpTrainOptions& options) : options_(options) {}

  Result<MpSvmModel> Train(const Dataset& dataset, SimExecutor* executor,
                           MpTrainReport* report) const;

 private:
  MpTrainOptions options_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_CORE_MP_TRAINER_H_
