// The pair engine: how a list of binary pair problems trains on one executor.
//
// GMP-SVM's MP level (Section 3.3.2) solves the k(k-1)/2 binary problems
// concurrently on SM-capped streams, retries a pair whose transient faults
// outlast the solver's own recovery, and fits each pair's sigmoid on the
// pair's own stream. Every trainer runs its pairs through this path with its
// own solver: SequentialMpTrainer with SmoSolver on the default stream;
// GmpSvmTrainer and each cluster device with BatchSmoSolver, cold or
// warm-seeded, with or without the shared block cache (GmpPairEngine); a
// sharded cluster pair with BatchSmoSolver on its shard group, through
// RunPairWithRetry on its coordinator. The concurrency is simulated: the
// host trains the pairs in order on the calling thread, each on its group's
// stream, and ExecutorModel::host_threads parallelizes the work inside each
// op. So every model, simulated second, report, counter and span is the
// same at any host thread count.

#ifndef GMPSVM_CORE_PAIR_ENGINE_H_
#define GMPSVM_CORE_PAIR_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "core/mp_trainer.h"
#include "core/shared_blocks.h"
#include "core/sigmoid_cv.h"
#include "device/executor.h"
#include "kernel/kernel_computer.h"

namespace gmpsvm {

// Solves pair (s, t)'s binary problem on (executor, stream), starting from
// `warm_alpha` when it is non-empty.
using PairSolveFn = std::function<Result<BinarySolution>(
    const BinaryProblem& problem, int s, int t,
    std::span<const double> warm_alpha, SimExecutor* executor,
    StreamId stream, SolverStats* stats)>;

// What a pair engine run trains with; the pointees must outlive the run.
struct PairEngine {
  const Dataset* dataset = nullptr;
  const MpTrainOptions* options = nullptr;
  const KernelComputer* computer = nullptr;
  // The pair solver, and the one for cross-validation folds
  // (options->sigmoid_cv_folds >= 2).
  PairSolveFn solve;
  BinarySolveFn solve_fold;
  // The sequential baseline: every pair on the default stream, sigmoids
  // fitted one candidate at a time, no shared block cache. Otherwise pairs
  // pack into groups under the memory budget, one SM-capped stream per pair,
  // and read a shared block cache when options->share_kernel_blocks is on.
  bool sequential = false;
  PairFaultInjectorFactory injectors;
  PairWarmStartProvider warm_start;
  // Runs on the calling thread after each pair completes, in pair order; an
  // error stops the run.
  std::function<Status(const PairTrainOutcome&)> on_complete;
};

// GMP-SVM's engine: BatchSmoSolver, warm-seeded when a seed is given, with
// CV folds solved cold on direct kernel rows. When `cache` is non-null and
// options.share_kernel_blocks is on, a shared block cache is reserved on
// `executor` into *cache and pairs read kernel rows through it (Figure 3).
PairEngine GmpPairEngine(const Dataset& dataset, const MpTrainOptions& options,
                         const KernelComputer& computer, SimExecutor* executor,
                         std::unique_ptr<SharedBlockCache>* cache);

// One pair to train: its ClassPairs() index and classes, its class-weighted
// problem and its warm seed (empty for a cold start).
struct PairJob {
  size_t pair_index = 0;
  int s = 0;
  int t = 0;
  BinaryProblem problem;
  std::vector<double> warm_alpha;
};

PairJob MakePairJob(const PairEngine& engine, size_t pair_index, int s, int t);

// The one pair retry loop: trains `job` on (executor, stream) with the
// pair's fault injector attached for its attempts only. Every attempt runs
// one body — the solve and its "smo s v t" span, decision values or CV
// folds, the Platt fit and its "sigmoid s v t" span — under the options'
// retry policy: a transient (kUnavailable) failure retries after a backoff
// charged to `stream`; exhaustion fails the pair (kFailFast) or degrades it
// to a neutral entry (kSkipDegraded); any other error fails it at once.
// `outcome` gets every attempt's work, even when the pair fails; `report`,
// if non-null, gets each attempt as it ends.
Status RunPairWithRetry(const PairEngine& engine, const PairJob& job,
                        SimExecutor* executor, StreamId stream,
                        PairTrainOutcome* outcome,
                        MpTrainReport* report = nullptr);

// Trains `pair_indices` (ascending ClassPairs() indices) on `executor`: the
// data load, stream packing, then each pair in order with its completion
// hook. Returns one outcome per pair, in the order given. `report`, if
// non-null, gets each attempt's work as the attempt ends.
Result<std::vector<PairTrainOutcome>> RunPairs(
    const PairEngine& engine, SimExecutor* executor,
    const std::vector<size_t>& pair_indices, MpTrainReport* report = nullptr);

// Adds a pair's, or one attempt's, work to `report` (no-op when null): the
// sigmoid phase when that stage ran, the solver statistics and their phases,
// the retries and the degraded flag. PhaseTimer sums doubles, so merging
// attempts and merging whole pairs differ in the last bits; each caller
// keeps its order.
void MergePairOutcome(const PairTrainOutcome& outcome, MpTrainReport* report);

// Decision values on the training instances, free from the solver's final
// optimality indicators: v_i = f_i + y_i + b (Equation 3 vs Equation 11).
std::vector<double> TrainingDecisionValues(const BinaryProblem& problem,
                                           const BinarySolution& solution);

// Charges the transfer of `bytes` of training data to (executor, stream) in a
// "data_load" phase span.
void ChargeDataLoad(SimExecutor* executor, StreamId stream, double bytes);

}  // namespace gmpsvm

#endif  // GMPSVM_CORE_PAIR_ENGINE_H_
