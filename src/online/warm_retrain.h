// Warm-start incremental retraining (ROADMAP item 4).
//
// A dataset delta touching class c invalidates only the k-1 pairwise
// problems involving c; the other (k-1)(k-2)/2 pairs saw no change to their
// rows or labels (deltas are append-only and row ids never move), so their
// previous solutions are still optimal. WarmRetrain therefore retrains only
// the affected pairs — seeded from the previous model's per-pair alphas
// through BatchSmoSolver's warm seed, the classic SMO incremental-restart
// pattern — and carries every untouched PairCheckpoint into the assembled
// model byte for byte.
//
// Retrained pairs are spread across the cluster with the same LPT scheduler,
// per-device fan-out (cluster::TrainAssignment) and per-pair fault-injector
// seeding the cluster trainer uses, so the result is byte-identical at any
// device count, with or without chaos.

#ifndef GMPSVM_ONLINE_WARM_RETRAIN_H_
#define GMPSVM_ONLINE_WARM_RETRAIN_H_

#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/pair_scheduler.h"
#include "core/mp_trainer.h"
#include "fault/fault_injector.h"

namespace gmpsvm::online {

struct WarmRetrainOptions {
  // Trainer configuration for the retrained pairs; checkpoint/interrupt are
  // rejected (cluster semantics, same as ClusterTrainOptions).
  MpTrainOptions train;

  // Pair-to-device scheduling of the retrained pairs. max_shards_per_pair
  // must stay 1: BatchSmoSolver takes a warm seed on one shard only.
  cluster::ScheduleOptions schedule;

  // Optional chaos plan for the retrained pairs: each pair gets an injector
  // seeded from (plan seed, pair index) only, so fault sequences are
  // device-count invariant. Device loss is not consulted here — warm
  // retrains are short; device-loss recovery lives in the cluster trainer.
  std::optional<fault::FaultPlan> fault;

  // Registry for the pair injectors' fault counters; nullptr disables.
  obs::MetricsRegistry* fault_metrics = nullptr;

  Status Validate(int num_classes = 0) const;
};

struct WarmRetrainReport {
  int64_t pairs_retrained = 0;
  int64_t pairs_carried = 0;
  int64_t pair_retries = 0;
  int64_t pairs_degraded = 0;
  // Problem rows that received a non-zero alpha seed across retrained pairs.
  int64_t warm_seeded_rows = 0;
  // Max over devices of sim-time spent on this retrain (the makespan).
  double makespan_sim_seconds = 0.0;
  // Per retrained pair index, the outcome statistics in global pair order.
  std::vector<PairTrainOutcome> retrained;
};

// Reconstructs the per-pair checkpoints of a trained model: global SV rows
// come from pool_source_rows, coefficients/bias/sigmoid from each entry.
// A pair with no support vectors is marked degraded (the neutral entry the
// skip-degraded policy emits), so a warm retrain re-trains it.
std::vector<PairCheckpoint> CheckpointsFromModel(const MpSvmModel& model);

// Pair indices (into dataset.ClassPairs()) that must be retrained: every
// pair touching a class in `affected_classes` plus every degraded previous
// pair. Sorted ascending.
std::vector<size_t> AffectedPairIndices(
    const Dataset& dataset, const std::vector<int>& affected_classes,
    const std::vector<PairCheckpoint>& previous);

// Retrains the affected pairs of `dataset` across `cluster`, warm-seeded
// from `previous` (the pre-delta model's checkpoints in ClassPairs() order),
// carries the rest over unchanged, and assembles the new model. `previous`
// must have one checkpoint per dataset pair with matching class labels.
Result<MpSvmModel> WarmRetrain(const Dataset& dataset,
                               const std::vector<PairCheckpoint>& previous,
                               const std::vector<int>& affected_classes,
                               const WarmRetrainOptions& options,
                               cluster::SimCluster* cluster,
                               WarmRetrainReport* report = nullptr);

}  // namespace gmpsvm::online

#endif  // GMPSVM_ONLINE_WARM_RETRAIN_H_
