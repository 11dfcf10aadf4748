#include "solver/smo_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "solver/kernel_cache.h"
#include "solver/working_set.h"

namespace gmpsvm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Status SmoOptions::Validate() const {
  if (!(eps > 0.0)) {
    return Status::InvalidArgument(
        StrPrintf("smo.eps must be positive, got %g", eps));
  }
  if (max_iterations < 1) {
    return Status::InvalidArgument(
        StrPrintf("smo.max_iterations must be >= 1, got %lld",
                  static_cast<long long>(max_iterations)));
  }
  return Status::OK();
}

Result<BinarySolution> SmoSolver::Solve(const BinaryProblem& problem,
                                        const KernelComputer& computer,
                                        SimExecutor* executor, StreamId stream,
                                        SolverStats* stats) const {
  GMP_RETURN_NOT_OK(options_.Validate());
  const int64_t n = problem.n();
  if (n < 2) {
    return Status::InvalidArgument("binary problem needs at least 2 instances");
  }
  if (problem.C <= 0) {
    return Status::InvalidArgument("C must be positive");
  }
  const auto& y = problem.y;
  // Per-instance box constraints (class-weighted C).
  std::vector<double> cvec(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    cvec[static_cast<size_t>(i)] = problem.CFor(y[static_cast<size_t>(i)]);
  }

  // Kernel-row cache; on the GPU baseline it occupies device memory, halving
  // until it fits the budget.
  size_t cache_bytes = options_.cache_bytes;
  DeviceAllocation cache_reservation;
  if (options_.cache_on_device) {
    while (cache_bytes > (1u << 20)) {
      auto reservation = executor->Allocate(cache_bytes);
      if (reservation.ok()) {
        cache_reservation = std::move(reservation).value();
        break;
      }
      cache_bytes /= 2;
    }
  }
  KernelCache cache(n, cache_bytes, /*max_rows=*/n);

  // Fetches the local kernel row for `i`, serving from cache when possible.
  std::vector<int32_t> batch_one(1);
  const auto get_row = [&](int32_t i) -> const double* {
    if (const double* row = cache.Lookup(i)) {
      // Re-reading a cached row still touches memory on the device.
      executor->Charge(stream, VectorPassCost(n, 0.0, sizeof(double)));
      executor->counters().kernel_values_reused += n;
      if (stats != nullptr) ++stats->kernel_rows_reused;
      return row;
    }
    double* slot = cache.Insert(i);
    batch_one[0] = problem.rows[static_cast<size_t>(i)];
    computer.ComputeBlock(batch_one, problem.rows, executor, stream, slot);
    if (stats != nullptr) ++stats->kernel_rows_computed;
    return slot;
  };

  // State: alpha, optimality indicators f_i = sum_j alpha_j y_j K_ij - y_i.
  std::vector<double> alpha(static_cast<size_t>(n), 0.0);
  std::vector<double> f(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) f[static_cast<size_t>(i)] = -static_cast<double>(y[i]);
  executor->Charge(stream, VectorPassCost(n, 1.0, sizeof(double)));

  // Diagonal K_ii (from precomputed norms; one elementwise pass).
  std::vector<double> diag(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    diag[static_cast<size_t>(i)] =
        computer.SelfKernelA(problem.rows[static_cast<size_t>(i)]);
  }
  executor->Charge(stream, VectorPassCost(n, 2.0, sizeof(double)));

  const double time_base = executor->StreamTime(stream);
  double kernel_time = 0.0;

  int64_t iterations = 0;
  for (;; ++iterations) {
    if (iterations >= options_.max_iterations) {
      GMP_LOG(Warning) << "SMO hit max_iterations=" << options_.max_iterations;
      break;
    }

    // Step 1a: u = argmin f over I_up (parallel reduction).
    int32_t u = -1;
    double f_u = kInf;
    for (int32_t i = 0; i < n; ++i) {
      if (InUpSet(y[i], alpha[i], cvec[static_cast<size_t>(i)]) && f[static_cast<size_t>(i)] < f_u) {
        f_u = f[static_cast<size_t>(i)];
        u = i;
      }
    }
    executor->Charge(stream, VectorPassCost(n, 1.0, 2 * sizeof(double)));
    if (u < 0) break;  // I_up empty: optimal.

    // Kernel row of u.
    double t0 = executor->StreamTime(stream);
    const double* row_u = get_row(u);
    kernel_time += executor->StreamTime(stream) - t0;

    // Step 1b: second-order choice of l plus the stopping-condition value
    // f_max = max f over I_low, in one pass (Equations (5) and (10)).
    int32_t l = -1;
    double best_gain = 0.0;
    double f_low_max = -kInf;
    const double k_uu = diag[static_cast<size_t>(u)];
    const bool second_order =
        options_.selection == SmoOptions::Selection::kSecondOrder;
    for (int32_t t = 0; t < n; ++t) {
      if (!InLowSet(y[t], alpha[t], cvec[static_cast<size_t>(t)])) continue;
      const double f_t = f[static_cast<size_t>(t)];
      f_low_max = std::max(f_low_max, f_t);
      const double grad_diff = f_t - f_u;
      if (grad_diff > 0) {
        double gain;
        if (second_order) {
          double eta = k_uu + diag[static_cast<size_t>(t)] - 2.0 * row_u[t];
          if (eta <= 0) eta = kSmoTau;
          gain = grad_diff * grad_diff / eta;
        } else {
          gain = grad_diff;  // maximal violating pair
        }
        if (gain > best_gain) {
          best_gain = gain;
          l = t;
        }
      }
    }
    executor->Charge(stream, VectorPassCost(n, 6.0, 3 * sizeof(double)));

    // Optimality (Constraint (9)).
    if (l < 0 || f_low_max - f_u < options_.eps) break;

    t0 = executor->StreamTime(stream);
    const double* row_l = get_row(l);
    kernel_time += executor->StreamTime(stream) - t0;

    // Step 2: update alpha_u and alpha_l with LibSVM's clipping. LibSVM's
    // QD[i]+QD[j]+2*Q_i[j] with Q_i[j] = y_i y_j K_ij is K_uu + K_ll - 2 K_ul
    // in both label cases; C_u and C_l may differ under -wi weights.
    const SmoPairDelta step =
        SmoUpdatePair(u, l, y, cvec[static_cast<size_t>(u)],
                      cvec[static_cast<size_t>(l)], k_uu,
                      diag[static_cast<size_t>(l)], row_u[l], f, alpha);
    executor->Charge(stream, VectorPassCost(1, 20.0, 0.0));

    // Step 3: update all optimality indicators (Equation (8)).
    const double yu_dau = y[u] * step.d_alpha_u;
    const double yl_dal = y[l] * step.d_alpha_l;
    for (int64_t i = 0; i < n; ++i) {
      f[static_cast<size_t>(i)] += yu_dau * row_u[i] + yl_dal * row_l[i];
    }
    executor->Charge(stream, VectorPassCost(n, 4.0, 3 * sizeof(double)));
  }

  if (stats != nullptr) {
    stats->iterations += iterations;
    stats->outer_rounds += iterations;
    stats->phases.Add("kernel_values", kernel_time);
    stats->phases.Add("other", executor->StreamTime(stream) - time_base - kernel_time);
  }

  return FinishSolution(std::move(alpha), std::move(f), y, cvec);
}

}  // namespace gmpsvm
