#include "online/warm_retrain.h"

#include <atomic>
#include <cmath>
#include <unordered_map>

#include "cluster/cluster_trainer.h"
#include "common/string_util.h"

namespace gmpsvm::online {

Status WarmRetrainOptions::Validate(int num_classes) const {
  GMP_RETURN_NOT_OK(
      cluster::ValidateClusterRun("warm retraining", train, fault, num_classes));
  // BatchSmoSolver takes a warm seed on one shard only, so retrained pairs
  // always train whole.
  if (schedule.max_shards_per_pair != 1) {
    return Status::InvalidArgument(StrPrintf(
        "warm retraining does not support intra-pair sharding: "
        "max_shards_per_pair must be 1, got %d",
        schedule.max_shards_per_pair));
  }
  return Status::OK();
}

std::vector<PairCheckpoint> CheckpointsFromModel(const MpSvmModel& model) {
  std::vector<PairCheckpoint> checkpoints;
  checkpoints.reserve(model.svms.size());
  for (const BinarySvmEntry& entry : model.svms) {
    PairCheckpoint pair;
    pair.class_s = entry.class_s;
    pair.class_t = entry.class_t;
    pair.bias = entry.bias;
    pair.sigmoid = entry.sigmoid;
    pair.degraded = entry.num_svs() == 0;
    pair.sv_rows.reserve(entry.sv_pool_index.size());
    for (int32_t pool_index : entry.sv_pool_index) {
      pair.sv_rows.push_back(
          model.pool_source_rows[static_cast<size_t>(pool_index)]);
    }
    pair.sv_coef = entry.sv_coef;
    checkpoints.push_back(std::move(pair));
  }
  return checkpoints;
}

std::vector<size_t> AffectedPairIndices(
    const Dataset& dataset, const std::vector<int>& affected_classes,
    const std::vector<PairCheckpoint>& previous) {
  const auto pairs = dataset.ClassPairs();
  std::vector<bool> affected(static_cast<size_t>(dataset.num_classes()), false);
  for (int cls : affected_classes) {
    if (cls >= 0 && cls < dataset.num_classes()) {
      affected[static_cast<size_t>(cls)] = true;
    }
  }
  std::vector<size_t> indices;
  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto& [s, t] = pairs[p];
    const bool touched = affected[static_cast<size_t>(s)] ||
                         affected[static_cast<size_t>(t)];
    const bool degraded = p < previous.size() && previous[p].degraded;
    if (touched || degraded) indices.push_back(p);
  }
  return indices;
}

Result<MpSvmModel> WarmRetrain(const Dataset& dataset,
                               const std::vector<PairCheckpoint>& previous,
                               const std::vector<int>& affected_classes,
                               const WarmRetrainOptions& options,
                               cluster::SimCluster* cluster,
                               WarmRetrainReport* report) {
  GMP_RETURN_NOT_OK(options.Validate(dataset.num_classes()));
  if (cluster == nullptr || cluster->num_devices() < 1) {
    return Status::InvalidArgument("cluster must have at least one device");
  }
  GMP_RETURN_NOT_OK(CheckPairOrder(dataset, previous));

  const std::vector<size_t> retrain_indices =
      AffectedPairIndices(dataset, affected_classes, previous);

  // Warm seeds: the previous pair's alphas keyed by global row. sv_coef
  // stores alpha * y with alpha >= 0, so |sv_coef| recovers alpha regardless
  // of which side the row sat on — which also makes relabeled rows legal
  // seeds (the solver clamps a seed into the box and repairs the equality
  // constraint). Devices seed their pairs concurrently.
  std::atomic<int64_t> warm_seeded_rows{0};
  const PairWarmStartProvider warm_start =
      [&previous, &warm_seeded_rows](size_t pair_index,
                                     const BinaryProblem& problem) {
        const PairCheckpoint& prev = previous[pair_index];
        if (prev.degraded || prev.sv_rows.empty()) {
          return std::vector<double>{};
        }
        std::unordered_map<int32_t, double> alpha_by_row;
        alpha_by_row.reserve(prev.sv_rows.size());
        for (size_t m = 0; m < prev.sv_rows.size(); ++m) {
          alpha_by_row.emplace(prev.sv_rows[m], std::fabs(prev.sv_coef[m]));
        }
        std::vector<double> seed(static_cast<size_t>(problem.n()), 0.0);
        int64_t seeded = 0;
        for (size_t i = 0; i < seed.size(); ++i) {
          const auto it = alpha_by_row.find(problem.rows[i]);
          if (it != alpha_by_row.end()) {
            seed[i] = it->second;
            ++seeded;
          }
        }
        warm_seeded_rows += seeded;
        return seed;
      };

  const cluster::PairAssignment assignment = cluster::SchedulePairs(
      dataset, retrain_indices, cluster->speeds(), {}, options.schedule);
  GMP_ASSIGN_OR_RETURN(
      cluster::AssignmentRun run,
      cluster::TrainAssignment(
          dataset, options.train, cluster, assignment, retrain_indices,
          cluster::PairFaultInjectors(options.fault, options.fault_metrics),
          warm_start));

  // Stitch: retrained outcomes replace their slots, everything else carries
  // the previous checkpoint verbatim (byte identity by construction).
  std::vector<PairCheckpoint> checkpoints(previous);
  for (size_t p : retrain_indices) checkpoints[p] = run.outcomes[p].checkpoint;

  if (report != nullptr) {
    report->pairs_retrained = static_cast<int64_t>(retrain_indices.size());
    report->pairs_carried =
        static_cast<int64_t>(previous.size() - retrain_indices.size());
    report->warm_seeded_rows = warm_seeded_rows;
    report->makespan_sim_seconds = run.merged.sim_seconds;
    report->pair_retries += run.merged.pair_retries;
    report->pairs_degraded += run.merged.pairs_degraded;
    report->retrained.clear();
    for (size_t p : retrain_indices) {
      report->retrained.push_back(std::move(run.outcomes[p]));
    }
  }

  return AssembleModelFromPairs(dataset, options.train, checkpoints);
}

}  // namespace gmpsvm::online
