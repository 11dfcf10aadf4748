// Classic SMO solver (Algorithm 1): two-element working sets chosen with the
// second-order heuristic of Fan et al., exactly the solver inside LibSVM's
// C-SVC. This is both the reference implementation that GMP-SVM must match
// bit-for-bit in classifier terms (Table 4) and, run against the GPU cost
// model with parallel reductions/updates, the paper's "GPU baseline".

#ifndef GMPSVM_SOLVER_SMO_SOLVER_H_
#define GMPSVM_SOLVER_SMO_SOLVER_H_

#include <cstdint>

#include "device/executor.h"
#include "kernel/kernel_computer.h"
#include "solver/solver_stats.h"
#include "solver/svm_problem.h"

namespace gmpsvm {

struct SmoOptions {
  // Optimality tolerance: stop when max_{I_low} f - min_{I_up} f < eps
  // (Constraint (9); LibSVM's default 1e-3).
  double eps = 1e-3;

  // Safety bound on SMO iterations.
  int64_t max_iterations = 50'000'000;

  // Kernel-row cache capacity (LibSVM defaults to 100 MB of host RAM; the
  // GPU baseline dedicates 4 GB of device memory).
  size_t cache_bytes = 100ull << 20;

  // If true, the cache is counted against the executor's device-memory
  // budget (the GPU baseline's configuration).
  bool cache_on_device = false;

  // LibSVM's shrinking heuristic (svm-train -h): periodically remove
  // instances that are pinned at a bound and cannot re-enter the working
  // set from the active scans, reconstructing their optimality indicators
  // before final convergence. Off by default; the produced classifier is
  // identical either way (tests assert this). Note: kernel rows are cached
  // full-length here, so shrinking accelerates the per-iteration scans and
  // updates, not the row computation itself.
  bool shrinking = false;

  // Shrink check cadence in iterations (LibSVM: min(n, 1000)).
  int64_t shrink_interval = 1000;

  // Working-set selection heuristic for the second element. kSecondOrder is
  // LibSVM's WSS2 (Fan et al. 2005, the paper's Equation (5)); kFirstOrder
  // is the plain maximal-violating-pair rule of early GPU SVMs (Catanzaro's
  // GPUSVM) — typically more, cheaper iterations.
  enum class Selection { kSecondOrder, kFirstOrder };
  Selection selection = Selection::kSecondOrder;

  // Checks eps > 0 (which also rejects NaN: the stop test would never hold)
  // and max_iterations >= 1, returning InvalidArgument that names the field
  // as MpTrainOptions spells it (smo.eps, smo.max_iterations). Called by
  // SmoSolver::Solve and MpTrainOptions::Validate.
  Status Validate() const;
};

class SmoSolver {
 public:
  explicit SmoSolver(const SmoOptions& options) : options_(options) {}

  // Trains one binary SVM. `computer` must be built over the same matrix the
  // problem's row ids refer to. All compute is charged to `stream`.
  // `stats` may be null.
  Result<BinarySolution> Solve(const BinaryProblem& problem,
                               const KernelComputer& computer,
                               SimExecutor* executor, StreamId stream,
                               SolverStats* stats) const;

 private:
  SmoOptions options_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SOLVER_SMO_SOLVER_H_
