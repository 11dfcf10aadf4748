#include "core/pair_engine.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "prob/platt.h"

namespace gmpsvm {
namespace {

// Distills a solved pair into its checkpoint-shaped result: the positive
// alphas as (global row, alpha * y) plus bias and sigmoid. Model entries are
// rebuilt from this whether the pair was just trained or loaded from disk, so
// the two paths cannot diverge.
PairCheckpoint DistillPair(int s, int t, const BinaryProblem& problem,
                           const BinarySolution& solution,
                           const SigmoidParams& sigmoid) {
  PairCheckpoint pair;
  pair.class_s = s;
  pair.class_t = t;
  pair.bias = solution.bias;
  pair.sigmoid = sigmoid;
  for (int64_t i = 0; i < problem.n(); ++i) {
    const double a = solution.alpha[static_cast<size_t>(i)];
    if (a <= 0.0) continue;
    pair.sv_rows.push_back(problem.rows[static_cast<size_t>(i)]);
    pair.sv_coef.push_back(a * static_cast<double>(problem.y[static_cast<size_t>(i)]));
  }
  return pair;
}

// One attempt at a pair: the solve, then concurrent sigmoid fitting on the
// pair's own stream (Section 3.3.2), distilled into the pair's checkpoint.
// The attempt's work lands in `attempt` whether or not it succeeds.
Result<PairCheckpoint> FitPair(const PairEngine& engine, const PairJob& job,
                               SimExecutor* exec, StreamId stream,
                               PairTrainOutcome* attempt) {
  const MpTrainOptions& options = *engine.options;
  const double smo_t0 = exec->StreamTime(stream);
  GMP_ASSIGN_OR_RETURN(BinarySolution solution,
                       engine.solve(job.problem, job.s, job.t, job.warm_alpha,
                                    exec, stream, &attempt->stats));
  exec->RecordPhase(stream, StrPrintf("smo %dv%d", job.s, job.t), smo_t0);

  std::vector<double> v;
  if (options.sigmoid_cv_folds >= 2) {
    GMP_ASSIGN_OR_RETURN(
        v, CrossValidatedDecisionValues(job.problem, *engine.computer,
                                        engine.solve_fold,
                                        options.sigmoid_cv_folds,
                                        /*seed=*/1u, exec, stream));
  } else {
    v = TrainingDecisionValues(job.problem, solution);
  }
  const double sigmoid_t0 = exec->StreamTime(stream);
  GMP_ASSIGN_OR_RETURN(
      SigmoidParams sigmoid,
      FitSigmoid(v, job.problem.y, exec, stream,
                 engine.sequential ? 1 : options.platt_parallel_candidates));
  exec->RecordPhase(stream, StrPrintf("sigmoid %dv%d", job.s, job.t),
                    sigmoid_t0);
  attempt->sigmoid_seconds = exec->StreamTime(stream) - sigmoid_t0;
  attempt->sigmoid_done = true;
  return DistillPair(job.s, job.t, job.problem, solution, sigmoid);
}

// Greedily packs `todo` (indices into `pairs`) into concurrent groups under
// the executor's memory budget: each pair needs its kernel buffer
// (min(ws, n_pair) * n_pair doubles) on the device, and a group never exceeds
// max_concurrent_svms.
std::vector<std::vector<size_t>> PackPairGroups(
    const Dataset& dataset, const MpTrainOptions& options,
    const SimExecutor& executor, const std::vector<size_t>& todo,
    const std::vector<std::pair<int, int>>& pairs) {
  const int64_t ws_rows = std::max(2, options.batch.working_set.ws_size);
  const size_t budget = executor.memory_budget();
  std::vector<std::vector<size_t>> groups;
  std::vector<size_t> current;
  size_t current_bytes = 0;
  const size_t usable = budget > executor.bytes_in_use()
                            ? (budget - executor.bytes_in_use()) * 6 / 10
                            : 0;
  for (size_t p : todo) {
    const auto& [s, t] = pairs[p];
    const int64_t n_pair =
        static_cast<int64_t>(dataset.ClassRows(s).size() +
                             dataset.ClassRows(t).size());
    const size_t need = static_cast<size_t>(std::min<int64_t>(ws_rows, n_pair) *
                                            n_pair) *
                        sizeof(double);
    const bool full = !current.empty() &&
                      (static_cast<int>(current.size()) >=
                           std::max(1, options.max_concurrent_svms) ||
                       current_bytes + need > usable);
    if (full) {
      groups.push_back(std::move(current));
      current.clear();
      current_bytes = 0;
    }
    current.push_back(p);
    current_bytes += need;
  }
  if (!current.empty()) groups.push_back(std::move(current));
  return groups;
}

}  // namespace

std::vector<double> TrainingDecisionValues(const BinaryProblem& problem,
                                           const BinarySolution& solution) {
  std::vector<double> v(solution.f.size());
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = solution.f[i] + static_cast<double>(problem.y[i]) + solution.bias;
  }
  return v;
}

PairEngine GmpPairEngine(const Dataset& dataset, const MpTrainOptions& options,
                         const KernelComputer& computer, SimExecutor* executor,
                         std::unique_ptr<SharedBlockCache>* cache) {
  SharedBlockCache* shared = nullptr;
  if (cache != nullptr && options.share_kernel_blocks) {
    *cache = std::make_unique<SharedBlockCache>(
        &dataset, &computer, options.shared_cache_bytes, executor);
    shared = cache->get();
  }
  const BatchSmoSolver solver(options.batch);
  PairEngine engine;
  engine.dataset = &dataset;
  engine.options = &options;
  engine.computer = &computer;
  // An empty seed solves cold.
  engine.solve = [solver, &computer, shared](
                     const BinaryProblem& problem, int s, int t,
                     std::span<const double> warm_alpha, SimExecutor* exec,
                     StreamId stream, SolverStats* stats) {
    if (shared == nullptr) {
      return solver.Solve(problem, computer, {exec, stream}, stats, warm_alpha);
    }
    SharedRowSource source(&problem, s, t, shared, &computer);
    return solver.Solve(problem, computer, {exec, stream}, stats, warm_alpha,
                        &source);
  };
  engine.solve_fold = [solver, &computer](const BinaryProblem& sub,
                                          SimExecutor* exec, StreamId stream) {
    return solver.Solve(sub, computer, {exec, stream}, nullptr);
  };
  return engine;
}

PairJob MakePairJob(const PairEngine& engine, size_t pair_index, int s, int t) {
  const MpTrainOptions& options = *engine.options;
  PairJob job;
  job.pair_index = pair_index;
  job.s = s;
  job.t = t;
  job.problem = engine.dataset->MakePairProblem(s, t, options.c, options.kernel);
  if (!options.class_weights.empty()) {
    job.problem.weight_pos = options.class_weights[static_cast<size_t>(s)];
    job.problem.weight_neg = options.class_weights[static_cast<size_t>(t)];
  }
  if (engine.warm_start != nullptr) {
    job.warm_alpha = engine.warm_start(pair_index, job.problem);
  }
  return job;
}

Status RunPairWithRetry(const PairEngine& engine, const PairJob& job,
                        SimExecutor* executor, StreamId stream,
                        PairTrainOutcome* outcome, MpTrainReport* report) {
  const MpTrainOptions& options = *engine.options;
  const fault::RetryPolicy& policy = options.pair_retry;
  outcome->pair_index = job.pair_index;
  fault::FaultInjector* const base_injector = executor->fault_injector();
  std::unique_ptr<fault::FaultInjector> pair_injector;
  if (engine.injectors != nullptr) {
    pair_injector = engine.injectors(job.pair_index);
    executor->SetFaultInjector(pair_injector.get());
  }
  Status status = Status::OK();
  for (int att = 1;; ++att) {
    PairTrainOutcome attempt;
    Result<PairCheckpoint> result =
        FitPair(engine, job, executor, stream, &attempt);
    bool retry = false;
    if (result.ok()) {
      outcome->checkpoint = std::move(result).value();
    } else if (!fault::IsTransientFault(result.status())) {
      status = result.status();
    } else if (att < policy.max_attempts) {
      retry = true;
      attempt.retries = 1;
    } else if (options.pair_failure_policy == PairFailurePolicy::kFailFast) {
      status = Status::Unavailable(
          StrPrintf("pair %dv%d failed after %d attempts: %s", job.s, job.t,
                    att, result.status().message().c_str()));
    } else {
      GMP_LOG(Warning) << "pair " << job.s << "v" << job.t << " degraded after "
                       << att << " attempts: " << result.status().message();
      // The neutral entry: no SVs, decision value 0, sigmoid {0, 0} so the
      // pairwise probability is exactly 0.5.
      outcome->checkpoint.class_s = job.s;
      outcome->checkpoint.class_t = job.t;
      outcome->checkpoint.degraded = attempt.degraded = true;
    }
    // Work done by failed attempts still counts.
    outcome->stats.Merge(attempt.stats);
    outcome->sigmoid_seconds += attempt.sigmoid_seconds;
    outcome->sigmoid_done = outcome->sigmoid_done || attempt.sigmoid_done;
    outcome->retries += attempt.retries;
    outcome->degraded = attempt.degraded;
    MergePairOutcome(attempt, report);
    if (!retry) break;
    const uint64_t seed =
        (static_cast<uint64_t>(job.s) << 32) | static_cast<uint64_t>(job.t);
    executor->AdvanceStream(stream, fault::BackoffSeconds(att, seed),
                            "retry_backoff");
  }
  if (engine.injectors != nullptr) executor->SetFaultInjector(base_injector);
  return status;
}

Result<std::vector<PairTrainOutcome>> RunPairs(
    const PairEngine& engine, SimExecutor* executor,
    const std::vector<size_t>& pair_indices, MpTrainReport* report) {
  const Dataset& dataset = *engine.dataset;
  const auto pairs = dataset.ClassPairs();
  executor->SynchronizeAll();
  // Each executor pays for its own copy of the training data — there is no
  // modeled device-to-device interconnect (docs/cost_model.md).
  ChargeDataLoad(executor, kDefaultStream,
                 static_cast<double>(dataset.features().ByteSize()));

  const std::vector<std::vector<size_t>> groups =
      engine.sequential
          ? std::vector<std::vector<size_t>>{pair_indices}
          : PackPairGroups(dataset, *engine.options, *executor, pair_indices,
                           pairs);
  std::vector<PairTrainOutcome> outcomes;
  for (const std::vector<size_t>& group : groups) {
    // One stream per pair in the group, each owning an equal share of SMs
    // (the paper caps SMs per binary SVM to enable concurrency), retired
    // when the group ends. The pairs overlap in simulated time; the host
    // trains them one after another.
    const ScopedStreams group_streams(
        executor, engine.sequential ? 0 : static_cast<int>(group.size()),
        1.0 / static_cast<double>(group.size()));
    for (size_t i = 0; i < group.size(); ++i) {
      const size_t p = group[i];
      const StreamId stream =
          engine.sequential ? kDefaultStream : group_streams.ids()[i];
      const PairJob job =
          MakePairJob(engine, p, pairs[p].first, pairs[p].second);
      PairTrainOutcome outcome;
      GMP_RETURN_NOT_OK(
          RunPairWithRetry(engine, job, executor, stream, &outcome, report));
      if (engine.on_complete != nullptr) {
        GMP_RETURN_NOT_OK(engine.on_complete(outcome));
      }
      outcomes.push_back(std::move(outcome));
    }
    // Barrier between groups: buffers are reclaimed before the next group.
    executor->SynchronizeAll();
  }
  executor->SynchronizeAll();
  return outcomes;
}

void MergePairOutcome(const PairTrainOutcome& outcome, MpTrainReport* report) {
  if (report == nullptr) return;
  if (outcome.sigmoid_done) report->phases.Add("sigmoid", outcome.sigmoid_seconds);
  report->solver.Merge(outcome.stats);
  report->phases.Merge(outcome.stats.phases);
  report->pair_retries += outcome.retries;
  if (outcome.degraded) ++report->pairs_degraded;
}

void ChargeDataLoad(SimExecutor* executor, StreamId stream, double bytes) {
  const double t0 = executor->StreamTime(stream);
  executor->Transfer(stream, bytes, TransferDirection::kHostToDevice);
  executor->RecordPhase(stream, "data_load", t0);
}

}  // namespace gmpsvm
