#include "core/mp_trainer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <unordered_map>

#include "common/string_util.h"
#include "core/model_io.h"
#include "core/pair_engine.h"
#include "core/shared_blocks.h"
#include "fault/fault_injector.h"

namespace gmpsvm {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

uint64_t Fnv1a64Bytes(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Fingerprint of (dataset shape + content + the options that affect the
// numeric result). Content means the actual labels and CSR feature arrays —
// two same-shaped datasets must not collide, or a resume would silently mix
// pairs trained on different data.
uint64_t TrainFingerprint(const Dataset& dataset, const MpTrainOptions& options) {
  std::ostringstream key;
  key.precision(17);
  key << dataset.size() << " " << dataset.dim() << " " << dataset.num_classes();
  for (int k = 0; k < dataset.num_classes(); ++k) {
    key << " " << dataset.ClassRows(k).size();
  }
  uint64_t content = kFnvOffset;
  const auto& labels = dataset.labels();
  content = Fnv1a64Bytes(labels.data(), labels.size() * sizeof(labels[0]),
                         content);
  const CsrMatrix& features = dataset.features();
  content = Fnv1a64Bytes(features.col_idx().data(),
                         features.col_idx().size() * sizeof(int32_t), content);
  content = Fnv1a64Bytes(features.values().data(),
                         features.values().size() * sizeof(double), content);
  key << " content=" << content;
  key << " c=" << options.c
      << " kernel=" << KernelTypeToString(options.kernel.type)
      << " gamma=" << options.kernel.gamma
      << " coef0=" << options.kernel.coef0
      << " degree=" << options.kernel.degree
      << " eps=" << options.batch.eps
      << " ws=" << options.batch.working_set.ws_size
      << " cv=" << options.sigmoid_cv_folds
      << " shared_sv=" << (options.share_support_vectors ? 1 : 0);
  for (double w : options.class_weights) key << " w=" << w;
  const std::string text = key.str();
  return Fnv1a64Bytes(text.data(), text.size(), kFnvOffset);
}

// Manages the checkpoint directory for one training run: loads completed
// pairs on resume, persists each newly completed pair, and flushes the
// manifest after each one.
class CheckpointSession {
 public:
  Status Init(const TrainCheckpointOptions& options, uint64_t fingerprint,
              int num_classes, MpTrainReport* report) {
    options_ = options;
    if (!enabled()) return Status::OK();
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    if (ec) {
      return Status::IoError("cannot create checkpoint dir " + options_.dir +
                             ": " + ec.message());
    }
    manifest_.fingerprint = fingerprint;
    manifest_.num_classes = num_classes;
    const std::string manifest_path = ManifestPath();
    if (options_.resume && std::filesystem::exists(manifest_path)) {
      GMP_ASSIGN_OR_RETURN(CheckpointManifest on_disk,
                           LoadCheckpointManifest(manifest_path));
      if (on_disk.fingerprint != fingerprint) {
        return Status::InvalidArgument(StrPrintf(
            "checkpoint manifest fingerprint %llu does not match this "
            "dataset/configuration (%llu); refusing to resume",
            static_cast<unsigned long long>(on_disk.fingerprint),
            static_cast<unsigned long long>(fingerprint)));
      }
      if (on_disk.num_classes != num_classes) {
        return Status::InvalidArgument(
            StrPrintf("checkpoint manifest has %d classes, dataset has %d",
                      on_disk.num_classes, num_classes));
      }
      for (const auto& [s, t] : on_disk.completed) {
        GMP_ASSIGN_OR_RETURN(
            PairCheckpoint pair,
            LoadPairCheckpoint(options_.dir + "/" + PairCheckpointFileName(s, t)));
        if (pair.class_s != s || pair.class_t != t) {
          return Status::InvalidArgument(
              StrPrintf("pair checkpoint %d-%d names pair %d-%d", s, t,
                        pair.class_s, pair.class_t));
        }
        // Degraded pairs are retrained on resume rather than carried over.
        if (pair.degraded) continue;
        manifest_.completed.emplace_back(s, t);
        loaded_.emplace(std::make_pair(s, t), std::move(pair));
        if (report != nullptr) ++report->pairs_resumed;
      }
    }
    return Status::OK();
  }

  bool enabled() const { return !options_.dir.empty(); }

  const PairCheckpoint* Loaded(int s, int t) const {
    auto it = loaded_.find(std::make_pair(s, t));
    return it == loaded_.end() ? nullptr : &it->second;
  }

  Status OnPairComplete(const PairCheckpoint& pair) {
    if (!enabled()) return Status::OK();
    GMP_RETURN_NOT_OK(SavePairCheckpoint(
        pair, options_.dir + "/" +
                  PairCheckpointFileName(pair.class_s, pair.class_t)));
    manifest_.completed.emplace_back(pair.class_s, pair.class_t);
    return Flush();
  }

  Status Flush() {
    if (!enabled()) return Status::OK();
    return SaveCheckpointManifest(manifest_, ManifestPath());
  }

 private:
  std::string ManifestPath() const {
    return options_.dir + "/" + kCheckpointManifestFileName;
  }

  TrainCheckpointOptions options_;
  CheckpointManifest manifest_;
  std::map<std::pair<int, int>, PairCheckpoint> loaded_;
};

// Both single-device trainers: every pair the checkpoint does not resume
// runs through the pair engine, with SmoSolver on the default stream for the
// sequential baseline or GMP-SVM's batched solver otherwise, and the model is
// assembled in ClassPairs() order.
Result<MpSvmModel> TrainOnOneDevice(const Dataset& dataset,
                                    const MpTrainOptions& options,
                                    bool sequential, SimExecutor* executor,
                                    MpTrainReport* report) {
  GMP_RETURN_NOT_OK(options.Validate(dataset.num_classes()));
  const TrainRunStart start(executor);

  KernelComputer computer(&dataset.features(), options.kernel);
  // The shared block cache lives across the whole run so later pairs reuse
  // earlier pairs' class segments; the sequential baseline never reads one.
  std::unique_ptr<SharedBlockCache> cache;
  PairEngine engine = GmpPairEngine(dataset, options, computer, executor,
                                    sequential ? nullptr : &cache);
  if (sequential) {
    const SmoSolver solver(options.smo);
    engine.solve = [solver, &computer](const BinaryProblem& problem, int, int,
                                       std::span<const double>,
                                       SimExecutor* exec, StreamId stream,
                                       SolverStats* stats) {
      return solver.Solve(problem, computer, exec, stream, stats);
    };
    engine.solve_fold = [solver, &computer](const BinaryProblem& sub,
                                            SimExecutor* exec,
                                            StreamId stream) {
      return solver.Solve(sub, computer, exec, stream, nullptr);
    };
    engine.sequential = true;
  }

  CheckpointSession ckpt;
  GMP_RETURN_NOT_OK(ckpt.Init(options.checkpoint,
                              TrainFingerprint(dataset, options),
                              dataset.num_classes(), report));
  const auto pairs = dataset.ClassPairs();
  std::vector<PairCheckpoint> results(pairs.size());
  std::vector<size_t> todo;  // indices into `pairs` that still need training
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (const PairCheckpoint* loaded = ckpt.Loaded(pairs[p].first, pairs[p].second)) {
      results[p] = *loaded;
    } else {
      todo.push_back(p);
    }
  }
  int64_t completed_this_run = 0;
  engine.on_complete = [&](const PairTrainOutcome& outcome) -> Status {
    GMP_RETURN_NOT_OK(ckpt.OnPairComplete(outcome.checkpoint));
    // The fault plan's simulated kill: flush the manifest so a resume can
    // pick up from here.
    fault::FaultInjector* injector = executor->fault_injector();
    if (injector == nullptr ||
        !injector->ShouldInterruptTraining(++completed_this_run)) {
      return Status::OK();
    }
    GMP_RETURN_NOT_OK(ckpt.Flush());
    return Status::Unavailable(
        StrPrintf("training interrupted by fault plan after %lld pairs",
                  static_cast<long long>(completed_this_run)));
  };
  GMP_ASSIGN_OR_RETURN(std::vector<PairTrainOutcome> outcomes,
                       RunPairs(engine, executor, todo, report));
  // Moved, not copied: copies freed before assembly scatter the model's
  // per-pair arrays, which slowed k=64 prediction by about 10%.
  for (PairTrainOutcome& outcome : outcomes) {
    results[outcome.pair_index] = std::move(outcome.checkpoint);
  }
  GMP_RETURN_NOT_OK(ckpt.Flush());
  FinishTrainReport(start, executor, report);
  // Resumed and trained pairs alike, in ClassPairs() order.
  return AssembleModelFromPairs(dataset, options, results);
}

}  // namespace

Status MpTrainOptions::Validate(int num_classes) const {
  if (!(c > 0.0)) {
    return Status::InvalidArgument(StrPrintf("c must be positive, got %g", c));
  }
  GMP_RETURN_NOT_OK(batch.Validate());
  GMP_RETURN_NOT_OK(smo.Validate());
  if (!class_weights.empty()) {
    if (num_classes > 0 &&
        class_weights.size() != static_cast<size_t>(num_classes)) {
      return Status::InvalidArgument(
          StrPrintf("class_weights size (%zu) must equal num_classes (%d)",
                    class_weights.size(), num_classes));
    }
    for (size_t k = 0; k < class_weights.size(); ++k) {
      if (!(class_weights[k] > 0.0)) {
        return Status::InvalidArgument(
            StrPrintf("class_weights[%zu] must be positive, got %g", k,
                      class_weights[k]));
      }
    }
  }
  if (max_concurrent_svms < 1) {
    return Status::InvalidArgument(StrPrintf(
        "max_concurrent_svms must be >= 1, got %d", max_concurrent_svms));
  }
  if (platt_parallel_candidates < 1) {
    return Status::InvalidArgument(
        StrPrintf("platt_parallel_candidates must be >= 1, got %d",
                  platt_parallel_candidates));
  }
  if (sigmoid_cv_folds < 0 || sigmoid_cv_folds == 1) {
    return Status::InvalidArgument(StrPrintf(
        "sigmoid_cv_folds must be 0 or >= 2, got %d", sigmoid_cv_folds));
  }
  GMP_RETURN_NOT_OK(pair_retry.Validate());
  if (host_threads < 0) {
    return Status::InvalidArgument(
        StrPrintf("host_threads must be >= 0, got %d", host_threads));
  }
  if (checkpoint.resume && checkpoint.dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint.resume requires checkpoint.dir to be set");
  }
  return Status::OK();
}

TrainRunStart::TrainRunStart(SimExecutor* executor) {
  executor->SynchronizeAll();
  sim_seconds = executor->NowSeconds();
  counters = executor->counters();
}

void FinishTrainReport(const TrainRunStart& start, SimExecutor* executor,
                       MpTrainReport* report) {
  executor->SynchronizeAll();
  if (report == nullptr) return;
  const ExecutorCounters& counters = executor->counters();
  report->sim_seconds = executor->NowSeconds() - start.sim_seconds;
  report->wall_seconds = start.wall.ElapsedSeconds();
  report->kernel_values_computed =
      counters.kernel_values_computed - start.counters.kernel_values_computed;
  report->kernel_values_reused =
      counters.kernel_values_reused - start.counters.kernel_values_reused;
  report->peak_device_bytes = counters.peak_bytes_in_use;
}

void MpTrainReport::PublishTo(obs::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->GetGauge("gmpsvm_train_sim_seconds",
                     "Simulated seconds from training start to model completion.")
      ->Set(sim_seconds);
  registry->GetGauge("gmpsvm_train_wall_seconds",
                     "Host wall-clock seconds spent training.")
      ->Set(wall_seconds);
  registry->GetCounter("gmpsvm_train_solver_iterations_total",
                       "SMO subproblems solved across all binary SVMs.")
      ->Add(static_cast<double>(solver.iterations));
  registry->GetCounter("gmpsvm_train_solver_outer_rounds_total",
                       "Working-set refreshes across all binary SVMs.")
      ->Add(static_cast<double>(solver.outer_rounds));
  registry->GetCounter("gmpsvm_train_kernel_rows_computed_total",
                       "Kernel rows computed by the solvers.")
      ->Add(static_cast<double>(solver.kernel_rows_computed));
  registry->GetCounter("gmpsvm_train_kernel_rows_reused_total",
                       "Kernel rows served from the buffer by the solvers.")
      ->Add(static_cast<double>(solver.kernel_rows_reused));
  registry->GetCounter("gmpsvm_train_kernel_values_computed_total",
                       "Kernel values computed during training.")
      ->Add(static_cast<double>(kernel_values_computed));
  registry->GetCounter("gmpsvm_train_kernel_values_reused_total",
                       "Kernel values reused during training.")
      ->Add(static_cast<double>(kernel_values_reused));
  registry->GetGauge("gmpsvm_train_peak_device_bytes",
                     "Peak simulated device memory during training.")
      ->SetMax(static_cast<double>(peak_device_bytes));
  registry->GetCounter("gmpsvm_train_pair_retries_total",
                       "Whole-pair retries after transient faults.")
      ->Add(static_cast<double>(pair_retries));
  registry->GetCounter("gmpsvm_train_pairs_degraded_total",
                       "Pairs that exhausted retries and emitted a neutral entry.")
      ->Add(static_cast<double>(pairs_degraded));
  registry->GetCounter("gmpsvm_train_pairs_resumed_total",
                       "Pairs loaded from a checkpoint instead of trained.")
      ->Add(static_cast<double>(pairs_resumed));
  registry->GetCounter("gmpsvm_train_kernel_row_retries_total",
                       "Retried batched kernel-row computations inside the solver.")
      ->Add(static_cast<double>(solver.kernel_row_retries));
  registry->GetCounter("gmpsvm_train_alloc_retries_total",
                       "Retried device allocations inside the solver.")
      ->Add(static_cast<double>(solver.alloc_retries));
  registry->GetCounter("gmpsvm_train_rows_poisoned_total",
                       "Kernel buffer rows poisoned by injected eviction faults.")
      ->Add(static_cast<double>(solver.rows_poisoned));
  for (const auto& [phase, seconds] : phases.phases()) {
    registry
        ->GetCounter("gmpsvm_train_phase_sim_seconds_total",
                     "Simulated seconds attributed to a training phase.",
                     {{"phase", phase}})
        ->Add(seconds);
  }
}

Result<MpSvmModel> SequentialMpTrainer::Train(const Dataset& dataset,
                                              SimExecutor* executor,
                                              MpTrainReport* report) const {
  return TrainOnOneDevice(dataset, options_, /*sequential=*/true, executor,
                          report);
}

Result<MpSvmModel> GmpSvmTrainer::Train(const Dataset& dataset,
                                        SimExecutor* executor,
                                        MpTrainReport* report) const {
  return TrainOnOneDevice(dataset, options_, /*sequential=*/false, executor,
                          report);
}

Status CheckPairOrder(const Dataset& dataset,
                      const std::vector<PairCheckpoint>& pairs_in_order) {
  const auto pairs = dataset.ClassPairs();
  if (pairs_in_order.size() != pairs.size()) {
    return Status::InvalidArgument(
        StrPrintf("got %zu pair checkpoints, dataset has %zu pairs",
                  pairs_in_order.size(), pairs.size()));
  }
  for (size_t p = 0; p < pairs.size(); ++p) {
    const PairCheckpoint& pair = pairs_in_order[p];
    if (pair.class_s != pairs[p].first || pair.class_t != pairs[p].second) {
      return Status::InvalidArgument(StrPrintf(
          "pair checkpoint %zu is %dv%d, expected %dv%d", p, pair.class_s,
          pair.class_t, pairs[p].first, pairs[p].second));
    }
  }
  return Status::OK();
}

Result<MpSvmModel> AssembleModelFromPairs(
    const Dataset& dataset, const MpTrainOptions& options,
    const std::vector<PairCheckpoint>& pairs_in_order) {
  GMP_RETURN_NOT_OK(options.Validate(dataset.num_classes()));
  GMP_RETURN_NOT_OK(CheckPairOrder(dataset, pairs_in_order));
  MpSvmModel model;
  model.num_classes = dataset.num_classes();
  model.c = options.c;
  model.kernel = options.kernel;
  // Support-vector pool indices depend on insertion order, so pairs enter in
  // ClassPairs() order however they were trained — this is what keeps
  // resumed and cluster runs byte-identical to uninterrupted ones.
  std::vector<int32_t> pool_rows;
  std::unordered_map<int32_t, int32_t> pool_slot;
  const auto pool_index = [&](int32_t global_row) {
    if (options.share_support_vectors) {
      auto [it, inserted] = pool_slot.try_emplace(
          global_row, static_cast<int32_t>(pool_rows.size()));
      if (inserted) pool_rows.push_back(global_row);
      return it->second;
    }
    pool_rows.push_back(global_row);
    return static_cast<int32_t>(pool_rows.size() - 1);
  };
  // Cascade statistics (docs/cascade.md): a pure function of the dataset's
  // class priors and each pair's Platt slope, so sequential, pair-parallel,
  // cluster, and resumed runs all stamp identical stats. |sigmoid.a| is the
  // calibrated sharpness of the pair's decision boundary (degraded pairs
  // have a zero slope and sort last); weighting by the priors puts pairs
  // that can eliminate the most probability mass first.
  const double total = static_cast<double>(dataset.size());
  for (const PairCheckpoint& pair : pairs_in_order) {
    BinarySvmEntry entry;
    entry.class_s = pair.class_s;
    entry.class_t = pair.class_t;
    entry.bias = pair.bias;
    entry.sigmoid = pair.sigmoid;
    for (size_t m = 0; m < pair.sv_rows.size(); ++m) {
      entry.sv_pool_index.push_back(pool_index(pair.sv_rows[m]));
      entry.sv_coef.push_back(pair.sv_coef[m]);
    }
    PairCascadeStats stats;
    if (total > 0.0) {
      stats.prior_s =
          static_cast<double>(dataset.ClassRows(pair.class_s).size()) / total;
      stats.prior_t =
          static_cast<double>(dataset.ClassRows(pair.class_t).size()) / total;
    }
    stats.score = std::abs(pair.sigmoid.a) * (stats.prior_s + stats.prior_t);
    model.svms.push_back(std::move(entry));
    model.cascade.push_back(stats);
  }
  model.support_vectors = dataset.features().SelectRows(pool_rows);
  model.pool_source_rows = std::move(pool_rows);
  return model;
}

}  // namespace gmpsvm
