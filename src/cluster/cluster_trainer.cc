#include "cluster/cluster_trainer.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/pair_engine.h"
#include "solver/batch_smo_solver.h"

namespace gmpsvm::cluster {
namespace {

// Salts of the independent seed streams a chaos plan splits into: one
// injector per pair, one loss draw per device and one per node. Each member
// needs a derived SEED, not a forked Rng object.
constexpr uint64_t kPairSalt = 0x70A1B;
constexpr uint64_t kDeviceSalt = 0xD00D;
constexpr uint64_t kNodeSalt = 0x40DE;

// Seed of member `index` of the `salt` stream: a function of the plan seed
// and the index only — never of the device assignment or node grouping,
// which is what makes chaos runs topology invariant.
uint64_t FaultSeed(uint64_t plan_seed, uint64_t salt, uint64_t index) {
  return SplitMix64(plan_seed ^ SplitMix64(salt + index));
}

// Loss draws at `site` for members 1..count-1 (member 0 never dies, so
// progress is always possible), each from its own seed stream.
std::vector<bool> DrawLosses(const ClusterTrainOptions& options,
                             fault::Site site, uint64_t salt, int count) {
  std::vector<bool> lost(static_cast<size_t>(count), false);
  if (!options.fault.has_value() || !(options.fault->ProbFor(site) > 0.0)) {
    return lost;
  }
  for (int i = 1; i < count; ++i) {
    fault::FaultPlan plan = *options.fault;
    plan.seed = FaultSeed(options.fault->seed, salt, static_cast<uint64_t>(i));
    fault::FaultInjector injector(plan, options.fault_metrics);
    lost[static_cast<size_t>(i)] = injector.ShouldInject(site);
  }
  return lost;
}

// Trains one sharded pair across its shard group: BatchSmoSolver solves it
// on the group, and the pair engine's fit, sigmoid and retry run on the
// coordinator — the same body and retry loop as a whole pair, so the outcome
// (checkpoint, stats, retry and degrade behaviour) is byte-identical to
// training the pair whole on one device.
Result<PairTrainOutcome> TrainShardedPair(
    const Dataset& dataset, const MpTrainOptions& options, SimCluster* cluster,
    const ShardedPair& sharded, const PairFaultInjectorFactory& injectors,
    dist::DistStats* dist_stats) {
  const auto [s, t] = dataset.ClassPairs()[sharded.pair];
  KernelComputer computer(&dataset.features(), options.kernel);
  // Sharded pairs always solve through direct kernel rows, never a shared
  // block cache.
  PairEngine engine = GmpPairEngine(dataset, options, computer,
                                    /*executor=*/nullptr, /*cache=*/nullptr);
  engine.injectors = injectors;
  const PairJob job = MakePairJob(engine, sharded.pair, s, t);
  const int64_t n = job.problem.n();

  // Never more shards than rows; the scheduler already caps this, but loss
  // re-forming may have shrunk the group below the cap it was built for.
  const size_t n_shards =
      std::min(sharded.devices.size(), static_cast<size_t>(std::max<int64_t>(n, 1)));
  const std::vector<std::pair<int64_t, int64_t>> ranges =
      dist::ContiguousShardRanges(n, static_cast<int>(n_shards));

  // Each shard pays host->device transfer for its instance slice: the
  // slice's share of the full feature matrix (pair rows are dataset rows).
  const double dataset_rows = static_cast<double>(std::max<int64_t>(
      static_cast<int64_t>(dataset.size()), 1));
  std::vector<dist::Shard> shards(n_shards);
  for (size_t j = 0; j < n_shards; ++j) {
    dist::Shard& shard = shards[j];
    shard.device = sharded.devices[j];
    shard.executor = cluster->device(shard.device);
    shard.stream = kDefaultStream;
    shard.begin = ranges[j].first;
    shard.end = ranges[j].second;
    shard.executor->SynchronizeAll();
    const double fraction =
        static_cast<double>(shard.end - shard.begin) / dataset_rows;
    ChargeDataLoad(shard.executor, shard.stream,
                   static_cast<double>(dataset.features().ByteSize()) * fraction);
  }

  const BatchSmoSolver solver(options.batch);
  engine.solve = [&](const BinaryProblem& problem, int, int,
                     std::span<const double> warm_alpha, SimExecutor*, StreamId,
                     SolverStats* stats) {
    dist::DistStats attempt_dist;
    Result<BinarySolution> solved = solver.Solve(
        problem, computer, {shards, &cluster->topology(), &attempt_dist}, stats,
        warm_alpha);
    dist_stats->Merge(attempt_dist);
    return solved;
  };
  // The pair's injector lives on the coordinator only — exactly the
  // single-device consult sequence (solver/batch_smo_solver.h).
  PairTrainOutcome outcome;
  const Status status = RunPairWithRetry(engine, job, shards[0].executor,
                                         shards[0].stream, &outcome);
  for (const dist::Shard& shard : shards) shard.executor->SynchronizeAll();
  GMP_RETURN_NOT_OK(status);
  return outcome;
}

}  // namespace

Status ValidateClusterRun(const char* what, const MpTrainOptions& train,
                          const std::optional<fault::FaultPlan>& fault,
                          int num_classes) {
  GMP_RETURN_NOT_OK(train.Validate(num_classes));
  if (!train.checkpoint.dir.empty() || train.checkpoint.resume) {
    return Status::InvalidArgument(StrPrintf(
        "%s does not support checkpoint/resume; use a single device "
        "(GmpSvmTrainer) for checkpointed sessions",
        what));
  }
  if (fault.has_value()) {
    GMP_RETURN_NOT_OK(fault->Validate());
    if (fault->interrupt_after_pairs > 0) {
      return Status::InvalidArgument(StrPrintf(
          "%s does not support interrupt_after_pairs (a single-device "
          "checkpoint/resume concept)",
          what));
    }
  }
  return Status::OK();
}

Status ClusterTrainOptions::Validate(int num_classes) const {
  GMP_RETURN_NOT_OK(
      ValidateClusterRun("cluster training", train, fault, num_classes));
  if (!(schedule.affinity_discount >= 0.0 && schedule.affinity_discount < 0.5)) {
    return Status::InvalidArgument(
        StrPrintf("affinity_discount must be in [0, 0.5), got %g",
                  schedule.affinity_discount));
  }
  if (schedule.max_shards_per_pair < 1) {
    return Status::InvalidArgument(
        StrPrintf("max_shards_per_pair must be >= 1, got %d",
                  schedule.max_shards_per_pair));
  }
  if (!(schedule.shard_oversize_factor >= 0.0)) {
    return Status::InvalidArgument(
        StrPrintf("shard_oversize_factor must be >= 0, got %g",
                  schedule.shard_oversize_factor));
  }
  if (schedule.max_shards_per_pair > 1 &&
      train.batch.working_set.drop_policy !=
          WorkingSetConfig::DropPolicy::kOldest) {
    return Status::InvalidArgument(
        "intra-pair sharding requires the kOldest working-set drop policy "
        "(the distributed refresh cannot reproduce kLeastViolating)");
  }
  return Status::OK();
}

void ClusterTrainReport::PublishTo(obs::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  merged.PublishTo(registry);
  registry
      ->GetGauge("gmpsvm_cluster_devices",
                 "Devices in the training cluster.")
      ->Set(static_cast<double>(devices.size()));
  registry
      ->GetGauge("gmpsvm_cluster_makespan_sim_seconds",
                 "Cluster training makespan in simulated seconds.")
      ->Set(makespan_sim_seconds);
  registry
      ->GetCounter("gmpsvm_cluster_pairs_rescheduled_total",
                   "Pairs rescheduled onto surviving devices after a "
                   "device loss.")
      ->Add(static_cast<double>(pairs_rescheduled));
  registry
      ->GetCounter("gmpsvm_cluster_devices_lost_total",
                   "Cluster devices lost to injected device-loss faults.")
      ->Add(static_cast<double>(devices_lost));
  registry
      ->GetGauge("gmpsvm_cluster_nodes", "Nodes in the training cluster.")
      ->Set(static_cast<double>(nodes));
  registry
      ->GetCounter("gmpsvm_cluster_nodes_lost_total",
                   "Cluster nodes lost to injected node-loss faults.")
      ->Add(static_cast<double>(nodes_lost));
  registry
      ->GetGauge("gmpsvm_cluster_pairs_sharded",
                 "Pairs trained via intra-pair instance sharding.")
      ->Set(static_cast<double>(pairs_sharded));
  registry
      ->GetCounter("gmpsvm_cluster_shards_rescheduled_total",
                   "Shard slots vacated by lost devices/nodes whose pairs "
                   "re-formed on the survivors.")
      ->Add(static_cast<double>(shards_rescheduled));
  registry
      ->GetCounter("gmpsvm_dist_allreduces_total",
                   "Allreduce merges performed by sharded pair solves.")
      ->Add(static_cast<double>(dist.allreduces));
  registry
      ->GetCounter("gmpsvm_dist_allreduce_rounds_total",
                   "Total recursive-doubling rounds across allreduce merges.")
      ->Add(static_cast<double>(dist.allreduce_rounds));
  registry
      ->GetGauge("gmpsvm_dist_merge_sim_seconds",
                 "Simulated seconds sharded solves spent in merges.")
      ->Set(dist.merge_seconds);
  registry
      ->GetCounter("gmpsvm_dist_link_bytes_total",
                   "Bytes moved by shard merges, per link class.",
                   {{"link", "intra_node"}})
      ->Add(dist.intra_node_bytes);
  registry
      ->GetCounter("gmpsvm_dist_link_bytes_total",
                   "Bytes moved by shard merges, per link class.",
                   {{"link", "inter_node"}})
      ->Add(dist.inter_node_bytes);
  for (size_t d = 0; d < devices.size(); ++d) {
    const obs::Labels labels = {{"device", std::to_string(d)}};
    registry
        ->GetGauge("gmpsvm_cluster_device_sim_seconds",
                   "Simulated seconds a device spent on its pair subset.",
                   labels)
        ->Set(devices[d].sim_seconds);
    registry
        ->GetGauge("gmpsvm_cluster_device_utilization",
                   "Device busy fraction of the cluster makespan.", labels)
        ->Set(devices[d].utilization);
    registry
        ->GetGauge("gmpsvm_cluster_device_pairs_trained",
                   "Binary pairs trained on a device.", labels)
        ->Set(static_cast<double>(devices[d].pairs_trained));
  }
}

Result<MpSvmModel> ClusterTrainer::Train(const Dataset& dataset,
                                         SimCluster* cluster,
                                         ClusterTrainReport* report) const {
  GMP_RETURN_NOT_OK(options_.Validate(dataset.num_classes()));
  if (cluster == nullptr || cluster->num_devices() < 1) {
    return Status::InvalidArgument("cluster must have at least one device");
  }
  Stopwatch wall;
  const int n_devices = cluster->num_devices();
  const dist::ClusterTopology& topology = cluster->topology();
  const std::vector<std::pair<int, int>> pairs = dataset.ClassPairs();

  std::vector<size_t> all_pairs(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) all_pairs[p] = p;

  // Loss draws: once per non-primary node and per non-primary device. Device
  // draws never depend on the node grouping, so they match across
  // topologies; losing a node loses every device on it.
  const std::vector<bool> node_lost = DrawLosses(
      options_, fault::Site::kNodeLoss, kNodeSalt, topology.num_nodes);
  const int nodes_lost =
      static_cast<int>(std::count(node_lost.begin(), node_lost.end(), true));
  std::vector<bool> lost =
      DrawLosses(options_, fault::Site::kDeviceLoss, kDeviceSalt, n_devices);
  int devices_lost = 0;
  for (int d = 1; d < n_devices; ++d) {
    if (node_lost[static_cast<size_t>(topology.node_of(d))]) {
      lost[static_cast<size_t>(d)] = true;
    }
    if (lost[static_cast<size_t>(d)]) ++devices_lost;
  }

  ScheduleOptions schedule = options_.schedule;
  schedule.topology = &topology;
  PairAssignment assignment =
      SchedulePairs(dataset, all_pairs, cluster->speeds(), {}, schedule);

  // Shard groups re-form on the survivors of any lost devices/nodes: with
  // >= 2 members left the pair stays sharded; with one it trains whole
  // there; with none it falls back to device 0 (which never dies). The
  // re-formed solve is byte-identical, so losses never perturb the model.
  int64_t shards_rescheduled = 0;
  {
    std::vector<ShardedPair> kept;
    for (ShardedPair& sp : assignment.sharded_pairs) {
      std::vector<int> survivors;
      for (int d : sp.devices) {
        if (!lost[static_cast<size_t>(d)]) survivors.push_back(d);
      }
      shards_rescheduled +=
          static_cast<int64_t>(sp.devices.size() - survivors.size());
      if (survivors.size() >= 2) {
        sp.devices = std::move(survivors);
        kept.push_back(std::move(sp));
        continue;
      }
      const int target = survivors.size() == 1 ? survivors[0] : 0;
      std::vector<size_t>& queue =
          assignment.device_pairs[static_cast<size_t>(target)];
      queue.insert(std::upper_bound(queue.begin(), queue.end(), sp.pair),
                   sp.pair);
      const int ps = pairs[sp.pair].first;
      const int pt = pairs[sp.pair].second;
      const double speed = cluster->speed(target);
      assignment.device_load[static_cast<size_t>(target)] +=
          EstimatePairCost(dataset, ps, pt) / (speed > 0.0 ? speed : 1.0);
    }
    assignment.sharded_pairs = std::move(kept);
  }

  // A lost device fails at a pair boundary after completing the first half
  // of its queue; it keeps the completed pairs and the orphaned remainder is
  // rescheduled LPT onto the survivors, on top of the load they already
  // carry.
  int64_t pairs_rescheduled = 0;
  {
    std::vector<size_t> orphans;
    for (int d = 1; d < n_devices; ++d) {
      if (!lost[static_cast<size_t>(d)]) continue;
      std::vector<size_t>& queue = assignment.device_pairs[static_cast<size_t>(d)];
      const size_t keep = queue.size() / 2;
      orphans.insert(orphans.end(), queue.begin() + static_cast<long>(keep),
                     queue.end());
      queue.resize(keep);
    }
    if (!orphans.empty()) {
      pairs_rescheduled = static_cast<int64_t>(orphans.size());
      std::vector<double> initial = assignment.device_load;
      for (int d = 0; d < n_devices; ++d) {
        if (lost[static_cast<size_t>(d)]) {
          initial[static_cast<size_t>(d)] =
              std::numeric_limits<double>::infinity();
        }
      }
      // Orphans reschedule whole — no second-guessing the shard decision
      // mid-recovery.
      ScheduleOptions resched_options = schedule;
      resched_options.max_shards_per_pair = 1;
      const PairAssignment resched =
          SchedulePairs(dataset, orphans, cluster->speeds(),
                        std::move(initial), resched_options);
      for (int d = 0; d < n_devices; ++d) {
        if (lost[static_cast<size_t>(d)]) continue;
        std::vector<size_t>& queue =
            assignment.device_pairs[static_cast<size_t>(d)];
        const std::vector<size_t>& extra =
            resched.device_pairs[static_cast<size_t>(d)];
        queue.insert(queue.end(), extra.begin(), extra.end());
        std::sort(queue.begin(), queue.end());
        assignment.device_load[static_cast<size_t>(d)] =
            resched.device_load[static_cast<size_t>(d)];
      }
    }
  }

  GMP_ASSIGN_OR_RETURN(
      AssignmentRun run,
      TrainAssignment(dataset, options_.train, cluster, assignment, all_pairs,
                      PairFaultInjectors(options_.fault, options_.fault_metrics)));

  std::vector<PairCheckpoint> checkpoints(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    checkpoints[p] = run.outcomes[p].checkpoint;
  }

  if (report != nullptr) {
    const double makespan = run.merged.sim_seconds;
    report->makespan_sim_seconds = makespan;
    report->wall_seconds = wall.ElapsedSeconds();
    report->merged = std::move(run.merged);
    report->merged.wall_seconds = report->wall_seconds;
    report->pairs_rescheduled = pairs_rescheduled;
    report->devices_lost = devices_lost;
    report->nodes = topology.num_nodes;
    report->nodes_lost = nodes_lost;
    report->pairs_sharded = static_cast<int>(assignment.sharded_pairs.size());
    report->shards_rescheduled = shards_rescheduled;
    report->dist = run.dist;
    report->pair_device = std::move(run.pair_device);
    report->devices.resize(static_cast<size_t>(n_devices));
    for (int d = 0; d < n_devices; ++d) {
      const double elapsed = run.device_seconds[static_cast<size_t>(d)];
      DeviceUtilization& util = report->devices[static_cast<size_t>(d)];
      util.model_name = cluster->model(d).name;
      util.pairs_trained = static_cast<int>(
          assignment.device_pairs[static_cast<size_t>(d)].size());
      util.lost = lost[static_cast<size_t>(d)];
      util.sim_seconds = elapsed;
      util.utilization = makespan > 0.0 ? elapsed / makespan : 0.0;
    }
    report->pair_outcomes = std::move(run.outcomes);
  }

  return AssembleModelFromPairs(dataset, options_.train, checkpoints);
}

PairFaultInjectorFactory PairFaultInjectors(
    const std::optional<fault::FaultPlan>& plan,
    obs::MetricsRegistry* metrics) {
  if (!plan.has_value()) return nullptr;
  return [base_plan = *plan,
          metrics](size_t pair_index) -> std::unique_ptr<fault::FaultInjector> {
    fault::FaultPlan pair_plan = base_plan;
    pair_plan.seed = FaultSeed(base_plan.seed, kPairSalt, pair_index);
    // Pair injectors never consult kDeviceLoss or kNodeLoss (the trainer
    // draws losses separately), so those probabilities staying set is
    // harmless.
    return std::make_unique<fault::FaultInjector>(pair_plan, metrics);
  };
}

Result<AssignmentRun> TrainAssignment(
    const Dataset& dataset, const MpTrainOptions& options, SimCluster* cluster,
    const PairAssignment& assignment, const std::vector<size_t>& pair_indices,
    const PairFaultInjectorFactory& injectors,
    const PairWarmStartProvider& warm_start) {
  const int n_devices = cluster->num_devices();

  // Baselines so elapsed sim time / counter deltas are attributable to this
  // run even on reused executors.
  std::vector<TrainRunStart> starts;
  for (int d = 0; d < n_devices; ++d) starts.emplace_back(cluster->device(d));

  AssignmentRun run;
  run.outcomes.resize(static_cast<size_t>(dataset.num_pairs()));
  run.pair_device.assign(run.outcomes.size(), -1);

  // Sharded pairs first, sequentially in pair order. Each solve spans
  // several devices, so these cannot overlap the per-device threads below;
  // they leave every participant synchronized. A sharded pair reports its
  // coordinator as the training device.
  for (const ShardedPair& sharded : assignment.sharded_pairs) {
    GMP_ASSIGN_OR_RETURN(
        run.outcomes[sharded.pair],
        TrainShardedPair(dataset, options, cluster, sharded, injectors,
                         &run.dist));
    run.pair_device[sharded.pair] = sharded.devices[0];
  }

  // Then one thread per device: each device is an independent simulator, so
  // this is wall-clock parallelism only — simulated results are identical to
  // running the devices one after another.
  using DeviceResult = Result<std::vector<PairTrainOutcome>>;
  std::vector<DeviceResult> device_results(
      static_cast<size_t>(n_devices), DeviceResult(std::vector<PairTrainOutcome>{}));
  // Each device keeps its own shared block cache: pairs co-located on it
  // reuse each other's class segments; there is no cross-device sharing.
  const auto run_device = [&](int d) {
    SimExecutor* device = cluster->device(d);
    KernelComputer computer(&dataset.features(), options.kernel);
    std::unique_ptr<SharedBlockCache> cache;
    PairEngine engine =
        GmpPairEngine(dataset, options, computer, device, &cache);
    engine.injectors = injectors;
    engine.warm_start = warm_start;
    device_results[static_cast<size_t>(d)] = RunPairs(
        engine, device, assignment.device_pairs[static_cast<size_t>(d)]);
  };
  if (n_devices == 1) {
    run_device(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n_devices));
    for (int d = 0; d < n_devices; ++d) threads.emplace_back(run_device, d);
    for (std::thread& th : threads) th.join();
  }

  // Propagate failures in device-index order for a deterministic error, then
  // re-key outcomes by global pair index.
  for (int d = 0; d < n_devices; ++d) {
    DeviceResult& result = device_results[static_cast<size_t>(d)];
    if (!result.ok()) return result.status();
    for (PairTrainOutcome& outcome : *result) {
      run.pair_device[outcome.pair_index] = d;
      run.outcomes[outcome.pair_index] = std::move(outcome);
    }
  }
  for (size_t p : pair_indices) {
    if (run.pair_device[p] < 0) {
      return Status::Internal(
          StrPrintf("pair %zu was scheduled on no device", p));
    }
  }

  // Merge per-pair statistics in global ClassPairs() order — the same order
  // (and sigmoid-before-solver sequence) the single-device trainer uses, so
  // merged reports line up across device counts.
  for (size_t p : pair_indices) MergePairOutcome(run.outcomes[p], &run.merged);
  for (int d = 0; d < n_devices; ++d) {
    MpTrainReport device;
    FinishTrainReport(starts[static_cast<size_t>(d)], cluster->device(d),
                      &device);
    run.device_seconds.push_back(device.sim_seconds);
    MpTrainReport& merged = run.merged;
    merged.sim_seconds = std::max(merged.sim_seconds, device.sim_seconds);
    merged.kernel_values_computed += device.kernel_values_computed;
    merged.kernel_values_reused += device.kernel_values_reused;
    merged.peak_device_bytes =
        std::max(merged.peak_device_bytes, device.peak_device_bytes);
  }
  return run;
}

}  // namespace gmpsvm::cluster
