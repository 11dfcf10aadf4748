// DistSmoSolver: the batched SMO solver of Section 3.3.1 with the pair's
// instances sharded across devices (intra-pair data parallelism).
//
// Each shard owns a contiguous local-index range [begin, end) of the binary
// problem. Per outer round, every shard computes its slice of the missing
// working-set kernel rows, its slice of the f-vector update, and its local
// top-q violator candidates; the global working set is then selected by a
// deterministic merge in the same total order (f, index) the single-device
// sort uses, and the inner SMO subproblems run on the coordinator
// (shards[0]). Merges are priced as recursive-doubling allreduces under the
// ClusterTopology's per-link bandwidth/latency model (topology.h).
//
// Determinism contract: the solution, SolverStats counters, and every kernel
// value are byte-identical to BatchSmoSolver::Solve on a single device, for
// any shard count and any placement of the shards across nodes — only
// simulated time (and hence phase attribution) depends on the topology.
// Three facts carry the proof:
//   * kernel slices — KernelComputer::ComputeBlock values are per-element
//     independent of the target subset, so per-shard slices concatenate to
//     the exact full-row bits;
//   * selection — WorkingSetSelector's distributed refresh admits exactly
//     the members its single-shard Update() would (working_set.h);
//   * updates — the inner loop and the aggregate f update are the
//     single-device SubproblemBatch, and the convergence reduction merges
//     min/max, which are order-free.
// Fault parity: only the coordinator's executor may carry a FaultInjector
// (the trainer attaches the per-pair injector there); the solver then
// consults kDeviceAlloc / kKernelRowBatch / kBufferEvict in exactly the
// single-device sequence, so chaos runs recover the clean model too.

#ifndef GMPSVM_DIST_DIST_SOLVER_H_
#define GMPSVM_DIST_DIST_SOLVER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "device/executor.h"
#include "dist/topology.h"
#include "kernel/kernel_computer.h"
#include "solver/batch_smo_solver.h"
#include "solver/solver_stats.h"
#include "solver/svm_problem.h"

namespace gmpsvm::dist {

// One instance shard of a distributed solve. `device` is the global device
// index in the ClusterTopology; `executor`/`stream` is where the shard's
// work is charged. shards[0] is the coordinator.
struct Shard {
  SimExecutor* executor = nullptr;
  StreamId stream = kDefaultStream;
  int device = 0;
  int64_t begin = 0;
  int64_t end = 0;
};

// Communication accounting of one (or several merged) distributed solves.
struct DistStats {
  int64_t allreduces = 0;        // collective merges performed
  int64_t allreduce_rounds = 0;  // sum of per-merge round counts
  double merge_seconds = 0.0;    // simulated seconds spent in merges
  double intra_node_bytes = 0.0;
  double inter_node_bytes = 0.0;

  void Merge(const DistStats& other);
};

// Deterministic contiguous ranges: shard j gets [j*n/S, (j+1)*n/S).
std::vector<std::pair<int64_t, int64_t>> ContiguousShardRanges(int64_t n,
                                                               int num_shards);

class DistSmoSolver {
 public:
  // `topology` must outlive the solver and cover every shard's device.
  DistSmoSolver(const BatchSmoOptions& options, const ClusterTopology* topology)
      : options_(options), topology_(topology) {}

  // Trains one binary SVM across `shards` (cold start; the warm-retrain path
  // never shards). Requires WorkingSetConfig::DropPolicy::kOldest — the
  // distributed refresh cannot reproduce kLeastViolating's tie behaviour.
  // `stats` and `dist_stats` may be null.
  Result<BinarySolution> Solve(const BinaryProblem& problem,
                               const KernelComputer& computer,
                               std::span<const Shard> shards,
                               SolverStats* stats, DistStats* dist_stats) const;

 private:
  BatchSmoOptions options_;
  const ClusterTopology* topology_;
};

}  // namespace gmpsvm::dist

#endif  // GMPSVM_DIST_DIST_SOLVER_H_
