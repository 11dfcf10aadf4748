// BatchSmoSolver: the binary-SVM-level solver of GMP-SVM (Section 3.3.1).
//
// Differences from the classic SmoSolver:
//   * a working set of ws_size instances instead of two, refreshed by
//     replacing its q most stale members with the q most violating eligible
//     instances (q = ws/2 by default, the paper's keep-half heuristic);
//   * the kernel rows of the working set are computed in one batched sparse
//     product and kept in a pre-allocated GPU buffer with FIFO replacement,
//     so refreshes only compute rows that are not already buffered;
//   * multiple SMO subproblems are solved per refresh against the buffered
//     rows ("solving q/2 subproblems in a batch is cheaper than solving the
//     same number individually");
//   * the inner optimization terminates early, with a budget scaled by
//     delta = f_l - f_u, to avoid over-fitting the working set ("reducing
//     the negative effect of local optimization on the working set").
//
// The solver produces the same classifier as SmoSolver/LibSVM up to the
// shared optimality tolerance (verified in tests and Table 4's bench).
//
// One outer loop runs every solve on a Placement: one shard covering [0, n)
// on the caller's (executor, stream), or a contiguous shard group, the
// pair's instances split across devices (intra-pair data parallelism). On a
// group, each shard charges its slice of every n-length pass and computes
// its column slice of the missing working-set rows; each shard selects its
// own top-q violator candidates, and the working set is merged in the same
// total order (f, index) the single-shard refresh uses; the inner
// subproblems run on the coordinator (shards[0]). Merges join the shard
// streams, priced as recursive-doubling allreduces on the cluster topology
// (dist/topology.h): allreduce_delta, allreduce_ws, ws_gather (when rows
// were missing) and allreduce_alpha each round, and dist_sync at the end.
// One shard pays no merges.
//
// Determinism contract: the solution, SolverStats counters and every kernel
// value are byte-identical whatever the placement, for any shard count and
// any assignment of the shards to nodes; only simulated time (and hence
// phase attribution) depends on the topology. Three facts carry the proof:
//   * kernel slices: KernelComputer::ComputeBlock values are per-element
//     independent of the target subset, so per-shard slices concatenate to
//     the exact full-row bits;
//   * selection: WorkingSetSelector's distributed refresh admits exactly the
//     members its single-shard Update() would (working_set.h);
//   * updates: the inner loop and the aggregate f update are one
//     SubproblemBatch on the coordinator, and the convergence reduction
//     merges min/max, which are order-free.
// Fault parity: only the coordinator's executor may carry a FaultInjector
// (the trainer attaches the per-pair injector there); the solver consults
// kDeviceAlloc / kKernelRowBatch / kBufferEvict in the single-shard
// sequence, so chaos runs recover the clean model too.

#ifndef GMPSVM_SOLVER_BATCH_SMO_SOLVER_H_
#define GMPSVM_SOLVER_BATCH_SMO_SOLVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "device/executor.h"
#include "dist/topology.h"
#include "kernel/kernel_computer.h"
#include "solver/kernel_buffer.h"
#include "solver/kernel_row_source.h"
#include "solver/solver_stats.h"
#include "solver/svm_problem.h"
#include "solver/working_set.h"

namespace gmpsvm {

struct BatchSmoOptions {
  WorkingSetConfig working_set;

  // Buffer capacity in rows; 0 means "same as the working set size" (the
  // paper equates buffer size and working-set size in Section 4.2). Values
  // larger than ws_size let rows of instances that left the working set be
  // reused if they re-enter.
  int buffer_rows = 0;

  // Buffer replacement policy (paper default: FIFO; kLru for the ablation).
  KernelBuffer::Policy buffer_policy = KernelBuffer::Policy::kFifo;

  // Optimality tolerance (Constraint (9)).
  double eps = 1e-3;

  // Safety bound on outer working-set refreshes.
  int64_t max_outer_rounds = 1'000'000;

  // Inner-iteration budget policy. kDeltaAdaptive spends few iterations per
  // working set while the global violation delta is large and more as the
  // solver approaches optimality; kFixed always runs max_inner (ablation).
  enum class InnerPolicy { kFixed, kDeltaAdaptive };
  InnerPolicy inner_policy = InnerPolicy::kDeltaAdaptive;

  // Max SMO subproblems per refresh; 0 means ws_size / 2.
  int max_inner = 0;

  // Count the kernel buffer against the executor's device-memory budget.
  bool buffer_on_device = true;

  // --- Fault recovery ------------------------------------------------------
  // With a FaultInjector attached to the executor, the batched row
  // computation and the buffer allocation can fail transiently; the solver
  // retries them in place up to these attempt counts before giving up with
  // kUnavailable (which the trainers' pair-level retry then handles).
  int max_row_batch_retries = 4;
  int max_alloc_retries = 4;

  // Checks the configuration and returns InvalidArgument naming the offending
  // field (ws_size < 2, q < 1, non-positive eps, negative
  // buffer_rows/max_inner, non-positive max_outer_rounds). Called by the
  // solver and by MpTrainOptions::Validate. Oversized ws_size/q remain legal:
  // WorkingSetSelector clamps them to the problem size.
  Status Validate() const;

  // Subproblems one round may solve under inner_policy, for a working set of
  // `ws_size` at global violation `delta` (`delta0`: the first round's).
  int InnerBudget(int ws_size, double delta, double delta0) const;
};

// The host arithmetic of one batched round on the working set (Alg. 2,
// lines 5-11): up to `budget` two-variable subproblems restricted to `ws`,
// reading kernel values only from the members' buffered rows, then one push
// of the batch's net alpha changes into the optimality indicators of every
// non-member (Equation (8) with the batch's aggregate delta). Members' state
// is gathered into position-indexed arrays that persist across rounds.
class SubproblemBatch {
 public:
  struct Counts {
    int solved = 0;   // subproblems solved
    int changed = 0;  // members whose alpha moved
  };

  // `rows[p]` is the buffered kernel row of member ws[p] (n values). Updates
  // alpha and f in place.
  Counts Run(std::span<const int32_t> ws, std::span<const double* const> rows,
             int budget, double eps, std::span<const int8_t> y,
             std::span<const double> c, std::span<const double> diag,
             std::span<double> f, std::span<double> alpha);

 private:
  std::vector<int8_t> y_;
  std::vector<double> c_, diag_, f_, alpha_, d_alpha_;
  std::vector<uint8_t> up_, low_;  // InUpSet / InLowSet of each member
  std::vector<double> k_u_;  // K(u, member) of the current subproblem
};

// Where a solve's rounds run (see the header comment).
struct Placement {
  // One shard covering [0, n) on (executor, stream).
  Placement(SimExecutor* executor, StreamId stream)
      : executor(executor), stream(stream) {}

  // A shard group: non-empty contiguous shards covering [0, n) on devices
  // of `topology`, shards[0] the coordinator. Merges are accounted into
  // `dist_stats` when it is non-null. All three must outlive the solve.
  Placement(std::span<const dist::Shard> shards,
            const dist::ClusterTopology* topology, dist::DistStats* dist_stats)
      : shards(shards), topology(topology), dist_stats(dist_stats) {}

  SimExecutor* executor = nullptr;
  StreamId stream = kDefaultStream;
  std::span<const dist::Shard> shards;
  const dist::ClusterTopology* topology = nullptr;
  dist::DistStats* dist_stats = nullptr;
};

class BatchSmoSolver {
 public:
  explicit BatchSmoSolver(const BatchSmoOptions& options) : options_(options) {}

  // Trains one binary SVM on `placement`; `stats` may be null.
  //
  // A non-empty `warm_alpha` seeds the solve ("alpha seeding", DeCoste &
  // Wagstaff): it is clamped into the problem's box and the equality
  // constraint is repaired, which cuts iterations along hyper-parameter
  // paths and lets the online pipeline restart a pair from its previous
  // solution. Kernel rows come from `source` (the shared kernel-block path)
  // or, when it is null, directly from the feature matrix.
  //
  // A shard group requires a topology and DropPolicy::kOldest (the
  // distributed refresh cannot reproduce kLeastViolating's ties), allows a
  // fault injector on the coordinator only, and on more than one shard
  // takes neither a warm seed nor a row source: each shard computes its own
  // column slice of the rows.
  Result<BinarySolution> Solve(const BinaryProblem& problem,
                               const KernelComputer& computer,
                               const Placement& placement, SolverStats* stats,
                               std::span<const double> warm_alpha = {},
                               KernelRowSource* source = nullptr) const;

 private:
  BatchSmoOptions options_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SOLVER_BATCH_SMO_SOLVER_H_
