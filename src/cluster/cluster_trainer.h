// Cluster training: shard the k(k-1)/2 pair problems across devices and, for
// oversized pairs, shard a single pair's instances across several devices.
//
// The trainer schedules pairs with the cost-model-aware pair scheduler and
// trains the assignment with TrainAssignment. Pairs the scheduler marked for
// intra-pair sharding train first (Phase A): BatchSmoSolver solves each on
// its shard group, merges priced by the cluster's node topology, with the
// pair engine's fit and retry on the coordinator.
// The remaining whole pairs then train through the pair engine
// (core/pair_engine.h), one std::thread per device — devices are independent
// simulators, so this is pure wall-clock parallelism (Phase B). Results are
// stitched back together in global ClassPairs() order with
// AssembleModelFromPairs.
//
// Determinism contract (extends PR 4): the model, predicted probabilities,
// and per-pair COUNTER statistics are byte-identical for nodes=1/devices=1
// vs any nodes x devices topology at any host_threads, clean or under a
// fault plan; only the simulated makespan and wall clock change. Three
// mechanisms make that hold:
//   * pair solutions are schedule-invariant (exact kernel math — see
//     mp_trainer.h), so the assignment never changes the numbers;
//   * a sharded pair's solve is byte-identical to the single-device solve —
//     solution AND counters — for any shard count or placement
//     (solver/batch_smo_solver.h), so sharding never changes the numbers
//     either;
//   * chaos runs use one fault injector PER PAIR, seeded from the plan seed
//     and the pair index, so a pair sees the same fault sequence whatever
//     device (or shard group, via the coordinator) trains it. (Per-pair
//     sim-time attribution still depends on the stream shares of the run,
//     and with share_kernel_blocks on, cache hit/miss counters depend on
//     co-location — those are the documented schedule-dependent quantities.
//     Sharded pairs always solve through the direct row source, never the
//     shared block cache.)
//
// Device loss (fault.device_loss_prob / Site::kDeviceLoss): each non-primary
// device draws once at the start of the run; a lost device completes the
// first half of its whole-pair queue at a pair boundary, keeps those pairs,
// and its orphaned remainder is rescheduled LPT onto the survivors. Device 0
// never dies, so progress is always possible. Every pair still trains
// exactly once with its own injector, which is why loss does not perturb the
// model.
//
// Node loss (fault.node_loss_prob / Site::kNodeLoss): each non-primary node
// draws once at the start of the run; losing a node loses every device on
// it. Shard groups that lose members re-form on the survivors — still ≥2
// left: the pair stays sharded on them; exactly 1: it trains whole there;
// none: it trains whole on device 0. Node 0 never dies. Orphaned shards are
// counted in shards_rescheduled, and because the re-formed solve is still
// byte-identical, chaos runs recover the exact clean model.
//
// Out of scope (rejected by Validate): checkpoint/resume and
// interrupt_after_pairs — both are single-device session concepts; train on
// one device if you need them.

#ifndef GMPSVM_CLUSTER_CLUSTER_TRAINER_H_
#define GMPSVM_CLUSTER_CLUSTER_TRAINER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/pair_scheduler.h"
#include "core/mp_trainer.h"
#include "dist/topology.h"
#include "fault/fault_injector.h"

namespace gmpsvm::cluster {

struct ClusterTrainOptions {
  MpTrainOptions train;

  // schedule.topology is ignored — the trainer always prices merges with the
  // cluster's own topology. Intra-pair sharding (max_shards_per_pair > 1)
  // requires the working set's kOldest drop policy (see
  // solver/batch_smo_solver.h).
  ScheduleOptions schedule;

  // Optional chaos plan; see the header comment for how it is split into
  // per-pair injectors and per-device loss draws.
  std::optional<fault::FaultPlan> fault;

  // When set, per-pair fault injectors publish
  // gmpsvm_fault_injected_total{site=...} here (the registry is thread-safe;
  // device threads share it). Null disables fault metrics.
  obs::MetricsRegistry* fault_metrics = nullptr;

  Status Validate(int num_classes) const;
};

struct DeviceUtilization {
  std::string model_name;
  int pairs_trained = 0;
  bool lost = false;
  // Simulated seconds this device spent on its subset (its own clock).
  double sim_seconds = 0.0;
  // sim_seconds / cluster makespan, in [0, 1].
  double utilization = 0.0;
};

struct ClusterTrainReport {
  // Cluster makespan: the max per-device simulated time. This is the
  // headline scaling number bench_cluster_scaling sweeps.
  double makespan_sim_seconds = 0.0;
  double wall_seconds = 0.0;

  // Per-pair statistics merged in global ClassPairs() order — the same merge
  // order a single-device GmpSvmTrainer report uses. merged.sim_seconds is
  // the makespan.
  MpTrainReport merged;

  std::vector<DeviceUtilization> devices;

  // Per-pair outcomes in ClassPairs() order (counter fields are
  // schedule-invariant when share_kernel_blocks is off; see mp_trainer.h).
  std::vector<PairTrainOutcome> pair_outcomes;

  // Which device each pair trained on (the coordinator, for sharded pairs),
  // in ClassPairs() order.
  std::vector<int> pair_device;

  int64_t pairs_rescheduled = 0;
  int devices_lost = 0;

  // Node topology and intra-pair sharding.
  int nodes = 1;
  int nodes_lost = 0;
  int pairs_sharded = 0;
  // Shard slots vacated by lost devices/nodes whose pairs re-formed on the
  // survivors.
  int64_t shards_rescheduled = 0;
  // Communication accounting summed over every sharded solve.
  dist::DistStats dist;

  // Publishes merged (gmpsvm_train_*) plus gmpsvm_cluster_* gauges (the
  // per-device series labeled {device=...}) and the gmpsvm_dist_* transfer
  // series (per-link byte counters labeled {link=intra_node|inter_node}).
  void PublishTo(obs::MetricsRegistry* registry) const;
};

// Checks `train` and `fault` for a run across a cluster, which keeps no
// single-device session: checkpoint/resume and interrupt_after_pairs are
// rejected. `what` names the run in messages.
Status ValidateClusterRun(const char* what, const MpTrainOptions& train,
                          const std::optional<fault::FaultPlan>& fault,
                          int num_classes);

// What training one PairAssignment across a cluster produced.
struct AssignmentRun {
  // Per global pair index: the pair's outcome and the device that trained it
  // (a sharded pair's coordinator); -1 for a pair the assignment did not
  // hold.
  std::vector<PairTrainOutcome> outcomes;
  std::vector<int> pair_device;
  // Simulated seconds each device spent on the run.
  std::vector<double> device_seconds;
  // The outcomes merged in ClassPairs() order, with sim_seconds = the
  // makespan (the max of device_seconds) and the devices' kernel values and
  // peak memory; wall_seconds is left to the caller.
  MpTrainReport merged;
  // Communication accounting summed over the sharded solves.
  dist::DistStats dist;
};

// Per-pair fault injectors for a chaos run (none without a plan): pair p's
// injector is seeded from (plan seed, p) only, so a pair sees the same fault
// sequence on any device or shard group. `metrics` may be null.
PairFaultInjectorFactory PairFaultInjectors(
    const std::optional<fault::FaultPlan>& plan, obs::MetricsRegistry* metrics);

// Trains `assignment` on `cluster`: its sharded pairs first, in pair order,
// then each device's whole pairs through the pair engine on one thread per
// device (GMP-SVM's solver, each device with its own shared block cache when
// options.share_kernel_blocks is on). Every device pays its data load, even
// with no pairs. Fails with the first failing sharded pair, else the
// lowest-indexed failing device, and with kInternal if a pair in
// `pair_indices` was scheduled on no device. The cluster trainer and the
// warm retrain share this fan-out.
Result<AssignmentRun> TrainAssignment(
    const Dataset& dataset, const MpTrainOptions& options, SimCluster* cluster,
    const PairAssignment& assignment, const std::vector<size_t>& pair_indices,
    const PairFaultInjectorFactory& injectors,
    const PairWarmStartProvider& warm_start = nullptr);

class ClusterTrainer {
 public:
  explicit ClusterTrainer(ClusterTrainOptions options)
      : options_(std::move(options)) {}

  // Trains the full MP-SVM model across the cluster's devices. `report` may
  // be null. The model is byte-identical to a single-device GmpSvmTrainer
  // run for any device count.
  Result<MpSvmModel> Train(const Dataset& dataset, SimCluster* cluster,
                           ClusterTrainReport* report) const;

 private:
  ClusterTrainOptions options_;
};

}  // namespace gmpsvm::cluster

#endif  // GMPSVM_CLUSTER_CLUSTER_TRAINER_H_
