// RetrainDaemon: the end-to-end continual-learning loop (ROADMAP item 4).
//
//   watch delta dir -> apply delta -> serve traffic + drift check
//     -> warm-start retrain (affected pairs only, across the cluster)
//     -> canary on a traffic fraction -> validator + fault-gated hot-swap
//     -> rollback on any failure, with the fleet still answering.
//
// The loop is fully deterministic: delta files are processed in sorted
// filename order, traffic is drawn from seeded Rng forks keyed by round
// index, canary sampling and fault decisions come from seeded streams, and
// warm retraining shards pairs with device-invariant per-pair injectors — so
// the same deltas and the same chaos seed produce byte-identical swapped
// models, drift counters, and canary verdicts at any devices x host-threads
// topology.
//
// Failure handling ("the fleet never stops answering"):
//   * delta-parse faults (site kDeltaParse) and canary faults (kCanary) are
//     transient: retried with sim-time backoff under the retry policy; a
//     delta that stays unreadable is skipped, a canary that cannot complete
//     rolls the candidate back;
//   * injected swap failures (kModelSwap) are retried the same way;
//   * validator rejections and canary verdict failures roll back terminally
//     — the previous version keeps serving (rollback is "never commit").

#ifndef GMPSVM_ONLINE_RETRAIN_DAEMON_H_
#define GMPSVM_ONLINE_RETRAIN_DAEMON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/predictor.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "online/canary.h"
#include "online/delta.h"
#include "online/drift.h"
#include "online/warm_retrain.h"
#include "serve/model_registry.h"

namespace gmpsvm::online {

struct RetrainDaemonOptions {
  // Directory of delta files (*.delta), processed in sorted filename order.
  std::string delta_dir;

  // Registry name the daemon serves and swaps.
  std::string model_name = "online";

  DriftOptions drift;
  CanaryOptions canary;
  WarmRetrainOptions retrain;

  // Retry policy for transient daemon-phase faults (delta parse, canary,
  // model swap); backoff is charged as simulated time on device 0.
  fault::RetryPolicy retry;

  // Optional daemon-level fault plan (sites kDeltaParse, kCanary,
  // kModelSwap). Pair-training chaos is configured separately through
  // retrain.fault so its per-pair seeding stays device-invariant.
  std::optional<fault::FaultPlan> fault;

  // Prediction options for served and canaried traffic.
  PredictOptions predict;

  // Labeled requests served (and drift-observed) per round. One round runs
  // after every applied delta; canary phases serve one further round.
  int64_t requests_per_round = 96;

  // Registry for gmpsvm_drift_* / gmpsvm_online_* series; nullptr disables.
  obs::MetricsRegistry* metrics = nullptr;

  Status Validate(int num_classes = 0) const;
};

struct RetrainDaemonReport {
  int64_t deltas_applied = 0;
  int64_t deltas_skipped = 0;  // unreadable or inapplicable delta files
  int64_t drift_arms = 0;
  int64_t retrains = 0;
  int64_t swaps_committed = 0;
  int64_t rollbacks = 0;

  // Every request is answered by the registered model of the moment —
  // candidate failures never drop traffic. requests_dropped exists so tests
  // and CI can assert the zero.
  int64_t requests_served = 0;
  int64_t requests_dropped = 0;
  int64_t canary_sampled = 0;

  // Transient-fault retries by daemon phase.
  int64_t delta_parse_retries = 0;
  int64_t canary_retries = 0;
  int64_t swap_retries = 0;

  // Aggregated over all warm retrains.
  int64_t pairs_retrained = 0;
  int64_t pairs_carried = 0;
  int64_t pair_retries = 0;

  // Canary verdicts in the order they were reached.
  std::vector<CanaryVerdict> verdicts;

  int64_t final_model_version = 0;
  double final_window_brier = 0.0;
};

class RetrainDaemon {
 public:
  // `registry` and `cluster` must outlive the daemon. Serving and daemon-
  // phase sim-time run on cluster device 0; retrains shard across all
  // devices.
  RetrainDaemon(const RetrainDaemonOptions& options, ModelRegistry* registry,
                cluster::SimCluster* cluster);

  RetrainDaemon(const RetrainDaemon&) = delete;
  RetrainDaemon& operator=(const RetrainDaemon&) = delete;

  // Registers `initial` (trained on `base`) under options.model_name, then
  // processes every delta file in options.delta_dir: apply, serve a round,
  // and when drift arms, warm-retrain / canary / swap. Returns the report;
  // the registry is left serving the final committed version.
  Result<RetrainDaemonReport> Run(const Dataset& base, MpSvmModel initial);

 private:
  struct ServedRound {
    std::vector<int64_t> rows;
    std::vector<int32_t> truth;
    PredictResult result;
  };

  Result<DatasetDelta> LoadDeltaWithRetry(const std::string& path,
                                          RetrainDaemonReport* report);
  Result<ServedRound> ServeRound(const Dataset& dataset,
                                 const MpSvmPredictor& predictor,
                                 uint64_t round, RetrainDaemonReport* report);

  RetrainDaemonOptions options_;
  ModelRegistry* registry_;
  cluster::SimCluster* cluster_;
  std::optional<fault::FaultInjector> injector_;
};

}  // namespace gmpsvm::online

#endif  // GMPSVM_ONLINE_RETRAIN_DAEMON_H_
