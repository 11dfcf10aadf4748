#include "online/retrain_daemon.h"

#include <algorithm>
#include <filesystem>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace gmpsvm::online {
namespace {

// Deterministic traffic: requests are drawn from Rng(kTrafficSeed) forks
// keyed by serve-round index; backoff jitter and canary sampling are seeded
// from it too.
constexpr uint64_t kTrafficSeed = 1;

}  // namespace

Status RetrainDaemonOptions::Validate(int num_classes) const {
  if (delta_dir.empty()) {
    return Status::InvalidArgument("delta_dir must be set");
  }
  if (model_name.empty()) {
    return Status::InvalidArgument("model_name must be set");
  }
  GMP_RETURN_NOT_OK(drift.Validate());
  GMP_RETURN_NOT_OK(canary.Validate());
  GMP_RETURN_NOT_OK(retrain.Validate(num_classes));
  GMP_RETURN_NOT_OK(retry.Validate());
  if (fault.has_value()) GMP_RETURN_NOT_OK(fault->Validate());
  GMP_RETURN_NOT_OK(predict.Validate());
  if (requests_per_round < 1) {
    return Status::InvalidArgument(
        StrPrintf("requests_per_round must be >= 1, got %lld",
                  static_cast<long long>(requests_per_round)));
  }
  return Status::OK();
}

RetrainDaemon::RetrainDaemon(const RetrainDaemonOptions& options,
                             ModelRegistry* registry,
                             cluster::SimCluster* cluster)
    : options_(options), registry_(registry), cluster_(cluster) {
  if (options_.fault.has_value()) {
    injector_.emplace(*options_.fault, options_.metrics);
  }
}

Result<DatasetDelta> RetrainDaemon::LoadDeltaWithRetry(
    const std::string& path, RetrainDaemonReport* report) {
  SimExecutor* dev = cluster_->device(0);
  for (int att = 1;; ++att) {
    Status injected = Status::OK();
    if (injector_.has_value() &&
        injector_->ShouldInject(fault::Site::kDeltaParse)) {
      injected = Status::Unavailable("injected delta-parse fault: " + path);
    }
    if (injected.ok()) return LoadDelta(path);
    if (att >= options_.retry.max_attempts) return injected;
    ++report->delta_parse_retries;
    const uint64_t seed = SplitMix64(0xDE17Aull ^ kTrafficSeed);
    dev->AdvanceStream(kDefaultStream, fault::BackoffSeconds(att, seed),
                       "delta_parse_backoff");
  }
}

Result<RetrainDaemon::ServedRound> RetrainDaemon::ServeRound(
    const Dataset& dataset, const MpSvmPredictor& predictor, uint64_t round,
    RetrainDaemonReport* report) {
  ServedRound served;
  Rng rng = Rng(kTrafficSeed).Fork(SplitMix64(0x5E54Eull + round));
  served.rows.reserve(static_cast<size_t>(options_.requests_per_round));
  served.truth.reserve(static_cast<size_t>(options_.requests_per_round));
  std::vector<SparseRowView> views;
  views.reserve(static_cast<size_t>(options_.requests_per_round));
  for (int64_t i = 0; i < options_.requests_per_round; ++i) {
    const int64_t row = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(dataset.size())));
    served.rows.push_back(row);
    served.truth.push_back(dataset.labels()[static_cast<size_t>(row)]);
    views.push_back(SparseRowView{dataset.features().RowIndices(row),
                                  dataset.features().RowValues(row)});
  }
  GMP_ASSIGN_OR_RETURN(
      served.result,
      predictor.PredictRows(views, cluster_->device(0), options_.predict));
  report->requests_served += options_.requests_per_round;
  return served;
}

Result<RetrainDaemonReport> RetrainDaemon::Run(const Dataset& base,
                                               MpSvmModel initial) {
  GMP_RETURN_NOT_OK(options_.Validate(base.num_classes()));
  if (registry_ == nullptr || cluster_ == nullptr ||
      cluster_->num_devices() < 1) {
    return Status::InvalidArgument(
        "daemon needs a registry and a cluster with at least one device");
  }
  RetrainDaemonReport report;
  const int num_classes = base.num_classes();

  obs::Counter* deltas_counter = nullptr;
  obs::Counter* swaps_counter = nullptr;
  obs::Counter* rollbacks_counter = nullptr;
  obs::Counter* requests_counter = nullptr;
  obs::Counter* canary_counter = nullptr;
  obs::Counter* retrains_counter = nullptr;
  if (options_.metrics != nullptr) {
    deltas_counter = options_.metrics->GetCounter(
        "gmpsvm_online_deltas_applied_total", "Dataset deltas applied.");
    swaps_counter = options_.metrics->GetCounter(
        "gmpsvm_online_swaps_total", "Canary-approved hot-swaps committed.");
    rollbacks_counter = options_.metrics->GetCounter(
        "gmpsvm_online_rollbacks_total",
        "Retrained candidates rolled back before commit.");
    requests_counter = options_.metrics->GetCounter(
        "gmpsvm_online_requests_total", "Requests answered by the daemon's "
        "serving loop.");
    canary_counter = options_.metrics->GetCounter(
        "gmpsvm_online_canary_sampled_total",
        "Requests shadowed onto a canary candidate.");
    retrains_counter = options_.metrics->GetCounter(
        "gmpsvm_online_retrains_total", "Warm-start retrains triggered by "
        "drift.");
  }

  // Initial registration is unconditional: there is nothing to canary
  // against, and a daemon that refuses to start serves nobody.
  GMP_ASSIGN_OR_RETURN(report.final_model_version,
                       registry_->Register(options_.model_name,
                                           std::move(initial)));
  if (injector_.has_value()) {
    registry_->SetFaultInjector(&*injector_);
  }

  GMP_ASSIGN_OR_RETURN(ModelHandle handle,
                       registry_->Get(options_.model_name));
  Dataset current = base;  // value copy; deltas replace it wholesale
  std::vector<PairCheckpoint> checkpoints = CheckpointsFromModel(*handle.model);

  DriftDetector drift(num_classes, options_.drift);
  // Classes touched since the last committed swap: a rollback keeps them
  // pending so the next armed retrain covers everything still unabsorbed.
  std::vector<int> pending_affected;
  uint64_t round = 0;

  // Delta files in sorted filename order — the daemon's deterministic
  // substitute for arrival order.
  std::vector<std::string> delta_files;
  {
    std::error_code ec;
    std::filesystem::directory_iterator it(options_.delta_dir, ec);
    if (ec) {
      return Status::IoError("cannot read delta dir " + options_.delta_dir);
    }
    for (const auto& entry : it) {
      if (entry.is_regular_file() && entry.path().extension() == ".delta") {
        delta_files.push_back(entry.path().string());
      }
    }
    std::sort(delta_files.begin(), delta_files.end());
  }

  for (const std::string& path : delta_files) {
    // --- Delta phase (site kDeltaParse, transient, retried) ---------------
    Result<DatasetDelta> delta = LoadDeltaWithRetry(path, &report);
    if (delta.ok()) {
      Result<Dataset> applied = ApplyDelta(current, *delta);
      if (applied.ok()) {
        current = std::move(applied).value();
        ++report.deltas_applied;
        if (deltas_counter != nullptr) deltas_counter->Increment();
        for (int cls : AffectedClasses(*delta)) {
          pending_affected.push_back(cls);
        }
        std::sort(pending_affected.begin(), pending_affected.end());
        pending_affected.erase(
            std::unique(pending_affected.begin(), pending_affected.end()),
            pending_affected.end());
      } else {
        GMP_LOG(Warning) << "skipping delta " << path << ": "
                         << applied.status().message();
        ++report.deltas_skipped;
      }
    } else {
      GMP_LOG(Warning) << "skipping delta " << path << ": "
                       << delta.status().message();
      ++report.deltas_skipped;
    }

    // --- Serve + drift phase ----------------------------------------------
    GMP_ASSIGN_OR_RETURN(handle, registry_->Get(options_.model_name));
    GMP_ASSIGN_OR_RETURN(
        ServedRound served,
        ServeRound(current, *handle.predictor, round++, &report));
    if (requests_counter != nullptr) {
      requests_counter->Add(static_cast<double>(options_.requests_per_round));
    }
    for (int64_t i = 0; i < served.result.num_instances; ++i) {
      drift.Observe(
          std::span<const double>(
              served.result.probabilities.data() +
                  static_cast<size_t>(i) * static_cast<size_t>(num_classes),
              static_cast<size_t>(num_classes)),
          served.truth[static_cast<size_t>(i)]);
    }
    if (!drift.armed()) continue;

    // --- Retrain phase -----------------------------------------------------
    ++report.drift_arms;
    ++report.retrains;
    if (retrains_counter != nullptr) retrains_counter->Increment();
    WarmRetrainReport retrain_report;
    Result<MpSvmModel> candidate =
        WarmRetrain(current, checkpoints, pending_affected, options_.retrain,
                    cluster_, &retrain_report);
    report.pairs_retrained += retrain_report.pairs_retrained;
    report.pairs_carried += retrain_report.pairs_carried;
    report.pair_retries += retrain_report.pair_retries;
    if (!candidate.ok()) {
      GMP_LOG(Warning) << "retrain failed, rolling back: "
                       << candidate.status().message();
      ++report.rollbacks;
      if (rollbacks_counter != nullptr) rollbacks_counter->Increment();
      drift.Disarm();
      continue;
    }

    // --- Canary phase (site kCanary, transient, retried) -------------------
    // The incumbent answers every request; the sampled fraction is also
    // predicted under the candidate and compared side by side. A retried
    // canary round re-serves the same drawn traffic, so retries change
    // nothing but injected-fault counters.
    GMP_ASSIGN_OR_RETURN(handle, registry_->Get(options_.model_name));
    GMP_ASSIGN_OR_RETURN(
        ServedRound canary_round,
        ServeRound(current, *handle.predictor, round++, &report));
    if (requests_counter != nullptr) {
      requests_counter->Add(static_cast<double>(options_.requests_per_round));
    }
    for (int64_t i = 0; i < canary_round.result.num_instances; ++i) {
      drift.Observe(
          std::span<const double>(
              canary_round.result.probabilities.data() +
                  static_cast<size_t>(i) * static_cast<size_t>(num_classes),
              static_cast<size_t>(num_classes)),
          canary_round.truth[static_cast<size_t>(i)]);
    }

    bool canary_completed = false;
    CanaryVerdict verdict;
    {
      SimExecutor* dev = cluster_->device(0);
      for (int att = 1; att <= options_.retry.max_attempts; ++att) {
        if (injector_.has_value() &&
            injector_->ShouldInject(fault::Site::kCanary)) {
          if (att >= options_.retry.max_attempts) break;
          ++report.canary_retries;
          const uint64_t seed = SplitMix64(0xCA9A1ull ^ kTrafficSeed);
          dev->AdvanceStream(kDefaultStream, fault::BackoffSeconds(att, seed),
                             "canary_backoff");
          continue;
        }
        CanaryComparator comparator(
            num_classes, options_.canary,
            SplitMix64(kTrafficSeed ^ (0xCAFEull + round)));
        std::vector<size_t> sampled;
        for (size_t i = 0; i < canary_round.rows.size(); ++i) {
          if (comparator.ShouldSample()) sampled.push_back(i);
        }
        std::vector<SparseRowView> views;
        views.reserve(sampled.size());
        for (size_t i : sampled) {
          const int64_t row = canary_round.rows[i];
          views.push_back(
              SparseRowView{current.features().RowIndices(row),
                            current.features().RowValues(row)});
        }
        MpSvmPredictor candidate_predictor(&*candidate);
        GMP_ASSIGN_OR_RETURN(
            PredictResult shadow,
            candidate_predictor.PredictRows(views, dev, options_.predict));
        for (size_t j = 0; j < sampled.size(); ++j) {
          const size_t i = sampled[j];
          comparator.Record(
              std::span<const double>(
                  canary_round.result.probabilities.data() +
                      i * static_cast<size_t>(num_classes),
                  static_cast<size_t>(num_classes)),
              std::span<const double>(
                  shadow.probabilities.data() +
                      j * static_cast<size_t>(num_classes),
                  static_cast<size_t>(num_classes)),
              canary_round.truth[i]);
        }
        report.canary_sampled += static_cast<int64_t>(sampled.size());
        if (canary_counter != nullptr) {
          canary_counter->Add(static_cast<double>(sampled.size()));
        }
        verdict = comparator.Verdict();
        canary_completed = true;
        break;
      }
    }
    if (!canary_completed) {
      verdict.passed = false;
      verdict.reason = "canary aborted by injected faults";
    }
    report.verdicts.push_back(verdict);

    if (!verdict.passed) {
      GMP_LOG(Warning) << "canary rejected candidate: " << verdict.reason;
      ++report.rollbacks;
      if (rollbacks_counter != nullptr) rollbacks_counter->Increment();
      drift.Disarm();
      continue;
    }

    // --- Swap phase (validator + site kModelSwap inside the registry) ------
    bool committed = false;
    Status swap_status = Status::OK();
    {
      SimExecutor* dev = cluster_->device(0);
      for (int att = 1; att <= options_.retry.max_attempts; ++att) {
        Result<int64_t> version =
            registry_->Register(options_.model_name, *candidate);
        if (version.ok()) {
          report.final_model_version = *version;
          committed = true;
          break;
        }
        swap_status = version.status();
        if (!fault::IsTransientFault(swap_status) ||
            att >= options_.retry.max_attempts) {
          break;
        }
        ++report.swap_retries;
        const uint64_t seed = SplitMix64(0x54A9ull ^ kTrafficSeed);
        dev->AdvanceStream(kDefaultStream, fault::BackoffSeconds(att, seed),
                           "swap_backoff");
      }
    }
    if (!committed) {
      GMP_LOG(Warning) << "swap rejected, rolling back: "
                       << swap_status.message();
      ++report.rollbacks;
      if (rollbacks_counter != nullptr) rollbacks_counter->Increment();
      drift.Disarm();
      continue;
    }

    ++report.swaps_committed;
    if (swaps_counter != nullptr) swaps_counter->Increment();
    checkpoints = CheckpointsFromModel(*candidate);
    pending_affected.clear();
    drift.Disarm();
  }

  if (injector_.has_value()) registry_->SetFaultInjector(nullptr);
  report.final_window_brier = drift.WindowBrier();
  return report;
}

}  // namespace gmpsvm::online
