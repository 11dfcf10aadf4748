// Cost-model-aware scheduling of binary-SVM pair problems onto cluster
// devices.
//
// The k(k-1)/2 pairwise problems are independent (Section 3.3.2 caps SMs per
// pair on ONE device; the cluster layer instead spreads whole pairs across
// devices). Pair cost is estimated from the class sizes — kernel work is
// quadratic in the pair's row count — and pairs are placed LPT-style
// (longest processing time first) onto the device with the lowest resulting
// normalized load. Devices that already hold one of a pair's class blocks get
// an affinity discount: co-located pairs sharing a class turn kernel-block
// recomputation into reuse through the device's shared block cache
// (Figure 3), so the scheduler prefers keeping a class's pairs together when
// it does not hurt balance.
//
// Oversized pairs can instead be SHARDED across several devices: their
// instances split into contiguous ranges, one shard group that
// BatchSmoSolver solves as one pair (solver/batch_smo_solver.h). The
// scheduler decides between whole-pair placement and intra-pair sharding by
// comparing the LPT placement's load against the sharded group's per-member
// load plus an allreduce merge estimate priced under the node topology's
// link model — a pair only shards when the network cost model says the
// split wins, and shard groups prefer staying inside one node when the
// intra-node link makes that cheaper.
//
// The schedule affects only WHERE a pair trains, never its solution: pair
// solutions are schedule-invariant whole or sharded (see mp_trainer.h and
// solver/batch_smo_solver.h), so any assignment yields the same model.
// Everything here is deterministic — ties break on the lowest pair index /
// device index.

#ifndef GMPSVM_CLUSTER_PAIR_SCHEDULER_H_
#define GMPSVM_CLUSTER_PAIR_SCHEDULER_H_

#include <cstddef>
#include <vector>

#include "core/dataset.h"
#include "dist/topology.h"

namespace gmpsvm::cluster {

struct ScheduleOptions {
  // Per resident class shared with the candidate device, the pair's cost is
  // discounted by this fraction when ranking devices (0 disables affinity;
  // a pair can share at most its two classes).
  double affinity_discount = 0.15;

  // Maximum devices an oversized pair's instances may be sharded across.
  // 1 disables intra-pair sharding (the default); sharding also requires
  // `topology` so merges can be priced.
  int max_shards_per_pair = 1;

  // A pair is "oversized" when its cost on the fastest usable device exceeds
  // this factor times the perfectly-balanced mean load. Oversized pairs
  // shard only when the modeled sharded makespan beats whole placement —
  // except at 0, which FORCES every pair onto the sharded path regardless of
  // the cost comparison (for tests and experiments).
  double shard_oversize_factor = 2.0;

  // Node topology used to price shard-merge allreduces. Must cover at least
  // device_speeds.size() devices and outlive the call. When null, sharding
  // is disabled regardless of max_shards_per_pair.
  const dist::ClusterTopology* topology = nullptr;
};

// Estimated relative cost of training pair (s, t): quadratic in the pair's
// row count, linear in the feature dimension (plus a constant term for the
// per-row work that does not scale with dim).
double EstimatePairCost(const Dataset& dataset, int s, int t);

// A pair whose instances are sharded across `devices` (coordinator first,
// then the remaining shard owners; order is the shard order).
struct ShardedPair {
  size_t pair = 0;
  std::vector<int> devices;
};

struct PairAssignment {
  // Per device, the assigned whole-pair indices (into dataset.ClassPairs()),
  // sorted ascending — each device trains its pairs in global pair order.
  std::vector<std::vector<size_t>> device_pairs;

  // Per device, the estimated load in cost units normalized by device speed
  // (including any initial load passed in, and shard slices of sharded
  // pairs plus their merge estimates).
  std::vector<double> device_load;

  // Pairs placed as instance shards instead of whole (sorted by pair index).
  // Empty unless ScheduleOptions enables sharding.
  std::vector<ShardedPair> sharded_pairs;
};

// Assigns `pair_indices` to devices. `device_speeds` are relative
// throughputs (e.g. compute_units * flops_per_unit); non-positive entries
// are treated as 1. `initial_load` (resized with zeros if shorter than the
// device count) lets a rescheduling pass account for work devices already
// carry — pass +infinity for a device that must not receive new work (a lost
// one). Deterministic for fixed inputs.
PairAssignment SchedulePairs(const Dataset& dataset,
                             const std::vector<size_t>& pair_indices,
                             const std::vector<double>& device_speeds,
                             std::vector<double> initial_load = {},
                             const ScheduleOptions& options = {});

}  // namespace gmpsvm::cluster

#endif  // GMPSVM_CLUSTER_PAIR_SCHEDULER_H_
