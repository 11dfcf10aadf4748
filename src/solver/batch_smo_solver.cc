#include "solver/batch_smo_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "fault/fault_injector.h"
#include "solver/kernel_buffer.h"

namespace gmpsvm {
namespace {

constexpr double kTau = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

TaskCost VectorPassCost(int64_t n, double flops_per_item, double bytes_per_item) {
  TaskCost cost;
  cost.parallel_items = n;
  cost.flops = flops_per_item * static_cast<double>(n);
  cost.bytes_read = bytes_per_item * static_cast<double>(n);
  return cost;
}

// Alpha deltas of one two-variable SMO update.
struct SmoPairDelta {
  double d_alpha_u = 0.0;
  double d_alpha_l = 0.0;
};

// One LibSVM-style two-variable update for the working-set pair (u, l):
// steps alpha[u]/alpha[l] along the constrained Newton direction and clips to
// the box.
SmoPairDelta SmoUpdatePair(int32_t u, int32_t l, std::span<const int8_t> y,
                           double c_u_bound, double c_l_bound, double k_uu,
                           double k_ll, double k_ul, std::span<const double> f,
                           std::span<double> alpha) {
  const double old_au = alpha[u];
  const double old_al = alpha[l];
  const double g_u = y[u] * f[u];
  const double g_l = y[l] * f[l];
  double& a_u = alpha[u];
  double& a_l = alpha[l];
  double quad = k_uu + k_ll - 2.0 * k_ul;
  if (quad <= 0) quad = kTau;
  if (y[u] != y[l]) {
    const double delta = (-g_u - g_l) / quad;
    const double diff = a_u - a_l;
    a_u += delta;
    a_l += delta;
    if (diff > 0) {
      if (a_l < 0) {
        a_l = 0;
        a_u = diff;
      }
    } else {
      if (a_u < 0) {
        a_u = 0;
        a_l = -diff;
      }
    }
    if (diff > c_u_bound - c_l_bound) {
      if (a_u > c_u_bound) {
        a_u = c_u_bound;
        a_l = c_u_bound - diff;
      }
    } else {
      if (a_l > c_l_bound) {
        a_l = c_l_bound;
        a_u = c_l_bound + diff;
      }
    }
  } else {
    const double delta = (g_u - g_l) / quad;
    const double sum = a_u + a_l;
    a_u -= delta;
    a_l += delta;
    if (sum > c_u_bound) {
      if (a_u > c_u_bound) {
        a_u = c_u_bound;
        a_l = sum - c_u_bound;
      }
    } else {
      if (a_l < 0) {
        a_l = 0;
        a_u = sum;
      }
    }
    if (sum > c_l_bound) {
      if (a_l > c_l_bound) {
        a_l = c_l_bound;
        a_u = sum - c_l_bound;
      }
    } else {
      if (a_u < 0) {
        a_u = 0;
        a_l = sum;
      }
    }
  }
  return SmoPairDelta{a_u - old_au, a_l - old_al};
}

}  // namespace

SubproblemBatch::Counts SubproblemBatch::Run(
    std::span<const int32_t> ws, std::span<const double* const> rows, int budget,
    double eps, std::span<const int8_t> y, std::span<const double> c,
    std::span<const double> diag, std::span<double> f, std::span<double> alpha) {
  const size_t m = ws.size();
  y_.resize(m);
  c_.resize(m);
  diag_.resize(m);
  f_.resize(m);
  alpha_.resize(m);
  k_u_.resize(m);
  up_.resize(m);
  low_.resize(m);
  d_alpha_.assign(m, 0.0);
  for (size_t p = 0; p < m; ++p) {
    const auto w = static_cast<size_t>(ws[p]);
    y_[p] = y[w];
    c_[p] = c[w];
    diag_[p] = diag[w];
    f_[p] = f[w];
    alpha_[p] = alpha[w];
    up_[p] = InUpSet(y_[p], alpha_[p], c_[p]);
    low_[p] = InLowSet(y_[p], alpha_[p], c_[p]);
  }

  Counts counts;
  for (; counts.solved < budget; ++counts.solved) {
    // Selection restricted to the working set.
    int u = -1;
    double f_u = kInf;
    for (size_t p = 0; p < m; ++p) {
      if (up_[p] && f_[p] < f_u) {
        f_u = f_[p];
        u = static_cast<int>(p);
      }
    }
    if (u < 0) break;
    const double* row_u = rows[static_cast<size_t>(u)];
    for (size_t p = 0; p < m; ++p) k_u_[p] = row_u[ws[p]];

    int l = -1;
    double best_gain = 0.0;
    double ws_low_max = -kInf;
    for (size_t p = 0; p < m; ++p) {
      if (!low_[p]) continue;
      const double f_w = f_[p];
      ws_low_max = std::max(ws_low_max, f_w);
      const double grad_diff = f_w - f_u;
      if (grad_diff > 0) {
        double eta = diag_[static_cast<size_t>(u)] + diag_[p] - 2.0 * k_u_[p];
        if (eta <= 0) eta = kTau;
        const double gain = grad_diff * grad_diff / eta;
        if (gain > best_gain) {
          best_gain = gain;
          l = static_cast<int>(p);
        }
      }
    }
    // Early termination on the working set: once the local violation falls
    // well under the current global violation, further inner iterations
    // would only locally over-optimize this working set.
    if (l < 0 || ws_low_max - f_u < std::max(eps * 0.5, 0.0)) break;

    const auto su = static_cast<size_t>(u);
    const auto sl = static_cast<size_t>(l);
    const SmoPairDelta upd = SmoUpdatePair(u, l, y_, c_[su], c_[sl], diag_[su],
                                           diag_[sl], k_u_[sl], f_, alpha_);
    d_alpha_[su] += upd.d_alpha_u;
    d_alpha_[sl] += upd.d_alpha_l;
    for (const size_t p : {su, sl}) {
      up_[p] = InUpSet(y_[p], alpha_[p], c_[p]);
      low_[p] = InLowSet(y_[p], alpha_[p], c_[p]);
    }

    // Update f for working-set members only (the cheap inner update).
    const double yu_dau = y_[su] * upd.d_alpha_u;
    const double yl_dal = y_[sl] * upd.d_alpha_l;
    const double* row_l = rows[sl];
    for (size_t p = 0; p < m; ++p) {
      f_[p] += yu_dau * k_u_[p] + yl_dal * row_l[ws[p]];
    }
  }

  // Non-members take the batch's net change; members already took every
  // step inside the batch. Each changed member's row is pushed in one
  // branch-free pass over all of f, and the members' values are written
  // over it afterwards (no pass at all when the set covers f).
  for (size_t p = 0; p < m; ++p) {
    alpha[static_cast<size_t>(ws[p])] = alpha_[p];
    if (d_alpha_[p] == 0.0) continue;
    ++counts.changed;
    if (m == f.size()) continue;
    const double coef = y_[p] * d_alpha_[p];
    const double* row = rows[p];
    for (size_t i = 0; i < f.size(); ++i) f[i] += coef * row[i];
  }
  for (size_t p = 0; p < m; ++p) f[static_cast<size_t>(ws[p])] = f_[p];
  return counts;
}

Status BatchSmoOptions::Validate() const {
  if (working_set.ws_size < 2) {
    return Status::InvalidArgument(
        StrPrintf("working_set.ws_size must be >= 2, got %d", working_set.ws_size));
  }
  if (working_set.q < 1) {
    return Status::InvalidArgument(
        StrPrintf("working_set.q must be >= 1, got %d", working_set.q));
  }
  // q and ws_size may both exceed the problem size; WorkingSetSelector
  // documents clamping them to the effective (n-limited) working set, and
  // callers rely on that for scaled configurations.
  if (!(eps > 0.0)) {
    return Status::InvalidArgument(StrPrintf("eps must be positive, got %g", eps));
  }
  if (buffer_rows < 0) {
    return Status::InvalidArgument(
        StrPrintf("buffer_rows must be >= 0, got %d", buffer_rows));
  }
  if (max_outer_rounds <= 0) {
    return Status::InvalidArgument(
        StrPrintf("max_outer_rounds must be positive, got %lld",
                  static_cast<long long>(max_outer_rounds)));
  }
  if (max_inner < 0) {
    return Status::InvalidArgument(
        StrPrintf("max_inner must be >= 0, got %d", max_inner));
  }
  if (max_row_batch_retries < 1) {
    return Status::InvalidArgument(StrPrintf(
        "max_row_batch_retries must be >= 1, got %d", max_row_batch_retries));
  }
  if (max_alloc_retries < 1) {
    return Status::InvalidArgument(
        StrPrintf("max_alloc_retries must be >= 1, got %d", max_alloc_retries));
  }
  return Status::OK();
}

int BatchSmoOptions::InnerBudget(int ws_size, double delta, double delta0) const {
  const int cap = max_inner > 0 ? max_inner : std::max(2, ws_size / 2);
  if (inner_policy != InnerPolicy::kDeltaAdaptive) return cap;
  // Large delta (far from optimal) => fewer iterations per working set;
  // near convergence => optimize the set thoroughly.
  const double ratio = std::clamp(delta / delta0, 0.0, 1.0);
  return std::min(std::max(16, static_cast<int>(cap * (1.0 - 0.75 * ratio))), cap);
}

Result<BinarySolution> BatchSmoSolver::Solve(const BinaryProblem& problem,
                                             const KernelComputer& computer,
                                             SimExecutor* executor, StreamId stream,
                                             SolverStats* stats) const {
  DirectRowSource source(&problem, &computer);
  return SolveImpl(problem, computer, &source, {}, executor, stream, stats);
}

Result<BinarySolution> BatchSmoSolver::Solve(const BinaryProblem& problem,
                                             const KernelComputer& computer,
                                             KernelRowSource* source,
                                             SimExecutor* executor, StreamId stream,
                                             SolverStats* stats) const {
  return SolveImpl(problem, computer, source, {}, executor, stream, stats);
}

Result<BinarySolution> BatchSmoSolver::SolveWarm(const BinaryProblem& problem,
                                                 const KernelComputer& computer,
                                                 std::span<const double> initial_alpha,
                                                 SimExecutor* executor,
                                                 StreamId stream,
                                                 SolverStats* stats) const {
  DirectRowSource source(&problem, &computer);
  return SolveImpl(problem, computer, &source, initial_alpha, executor, stream,
                   stats);
}

Result<BinarySolution> BatchSmoSolver::SolveWarm(const BinaryProblem& problem,
                                                 const KernelComputer& computer,
                                                 KernelRowSource* source,
                                                 std::span<const double> initial_alpha,
                                                 SimExecutor* executor,
                                                 StreamId stream,
                                                 SolverStats* stats) const {
  return SolveImpl(problem, computer, source, initial_alpha, executor, stream,
                   stats);
}

Result<BinarySolution> BatchSmoSolver::SolveImpl(const BinaryProblem& problem,
                                                 const KernelComputer& computer,
                                                 KernelRowSource* source,
                                                 std::span<const double> initial_alpha,
                                                 SimExecutor* executor,
                                                 StreamId stream,
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

  WorkingSetSelector selector(options_.working_set, n);
  const int ws_size = selector.ws_size();
  const int64_t buffer_rows =
      std::max<int64_t>(options_.buffer_rows > 0 ? options_.buffer_rows : ws_size,
                        ws_size);

  // Reserve the GPU buffer against the device budget. A transient (injected)
  // allocation failure is retried in place; genuine OOM propagates.
  DeviceAllocation buffer_reservation;
  if (options_.buffer_on_device) {
    const size_t buffer_bytes =
        static_cast<size_t>(buffer_rows * n) * sizeof(double);
    for (int attempt = 1;; ++attempt) {
      auto reservation = executor->Allocate(buffer_bytes);
      if (reservation.ok()) {
        buffer_reservation = std::move(*reservation);
        break;
      }
      if (!reservation.status().IsUnavailable() ||
          attempt >= options_.max_alloc_retries) {
        return reservation.status();
      }
      if (stats != nullptr) ++stats->alloc_retries;
    }
  }
  KernelBuffer buffer(n, buffer_rows, options_.buffer_policy);
  buffer.SetFaultInjector(executor->fault_injector());

  // Solver state.
  std::vector<double> alpha(static_cast<size_t>(n), 0.0);
  std::vector<double> f(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) f[static_cast<size_t>(i)] = -static_cast<double>(y[i]);
  executor->Charge(stream, VectorPassCost(n, 1.0, sizeof(double)));

  if (!initial_alpha.empty()) {
    if (static_cast<int64_t>(initial_alpha.size()) != n) {
      return Status::InvalidArgument("initial_alpha size mismatch");
    }
    // Alpha seeding: clamp into this problem's box, repair the equality
    // constraint (clamping can break it), then rebuild f from the seed.
    double drift = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double a = std::clamp(initial_alpha[static_cast<size_t>(i)], 0.0,
                                  cvec[static_cast<size_t>(i)]);
      alpha[static_cast<size_t>(i)] = a;
      drift += a * static_cast<double>(y[i]);
    }
    for (int64_t i = 0; i < n && std::abs(drift) > 1e-12; ++i) {
      double& a = alpha[static_cast<size_t>(i)];
      if (a <= 0.0) continue;
      if ((drift > 0) == (y[i] > 0)) {
        const double reduce = std::min(a, std::abs(drift));
        a -= reduce;
        drift -= static_cast<double>(y[i]) * reduce;
      }
    }
    // f_i = sum_j alpha_j y_j K_ij - y_i via one batched product over seeds.
    std::vector<int32_t> seed_locals;
    for (int64_t j = 0; j < n; ++j) {
      if (alpha[static_cast<size_t>(j)] > 0.0) {
        seed_locals.push_back(static_cast<int32_t>(j));
      }
    }
    if (!seed_locals.empty()) {
      std::vector<int32_t> seed_globals(seed_locals.size());
      for (size_t m = 0; m < seed_locals.size(); ++m) {
        seed_globals[m] = problem.rows[static_cast<size_t>(seed_locals[m])];
      }
      std::vector<double> block(seed_locals.size() * static_cast<size_t>(n));
      computer.ComputeBlock(seed_globals, problem.rows, executor, stream,
                            block.data());
      for (size_t m = 0; m < seed_locals.size(); ++m) {
        const double coef = alpha[static_cast<size_t>(seed_locals[m])] *
                            static_cast<double>(y[seed_locals[m]]);
        const double* row = block.data() + m * static_cast<size_t>(n);
        for (int64_t i = 0; i < n; ++i) f[static_cast<size_t>(i)] += coef * row[i];
      }
      executor->Charge(
          stream, VectorPassCost(n, 2.0 * static_cast<double>(seed_locals.size()),
                                 2 * sizeof(double)));
    }
  }

  std::vector<double> diag(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    diag[static_cast<size_t>(i)] =
        computer.SelfKernelA(problem.rows[static_cast<size_t>(i)]);
  }
  executor->Charge(stream, VectorPassCost(n, 2.0, sizeof(double)));

  const double time_base = executor->StreamTime(stream);
  double kernel_time = 0.0;
  double subproblem_time = 0.0;

  std::vector<int32_t> present, missing;
  std::vector<const double*> ws_rows;
  SubproblemBatch batch;
  int64_t iterations = 0;
  int64_t rounds = 0;
  double delta0 = -1.0;  // first observed global violation

  for (;; ++rounds) {
    if (rounds >= options_.max_outer_rounds) {
      GMP_LOG(Warning) << "batch SMO hit max_outer_rounds";
      break;
    }

    // Global convergence check (one parallel reduction over n).
    const ViolationExtremes ext = FindViolationExtremes(f, alpha, y, cvec);
    executor->Charge(stream, VectorPassCost(n, 2.0, 2 * sizeof(double)));
    const double delta = ext.f_low_max - ext.f_up_min;
    if (delta < options_.eps) break;
    if (delta0 < 0) delta0 = delta;

    // Refresh the working set. The charge prices the paper's device sort of
    // f (n log n); the host reaches the same set by partial selection.
    const std::vector<int32_t>& ws =
        selector.Update(f, alpha, std::span<const int8_t>(y), cvec);
    executor->Charge(stream,
                     VectorPassCost(n, 2.0 * std::log2(static_cast<double>(n) + 2.0),
                                    2 * sizeof(double)));

    // Ensure all working-set rows are buffered; batch-compute the missing
    // ones (this is THE kernel-value computation of Figure 11).
    buffer.Pin(ws);
    buffer.Partition(ws, &present, &missing);
    if (!missing.empty()) {
      const double t0 = executor->StreamTime(stream);
      GMP_ASSIGN_OR_RETURN(std::vector<double*> slots, buffer.InsertBatch(missing));
      // Recovery: under an attached fault injector the batched row launch can
      // fail transiently. Each failed attempt burns a launch slot on the
      // stream; bounded retries either get through (the injector's
      // consecutive cap guarantees progress for well-formed plans) or give up
      // with kUnavailable for the trainer's pair-level retry to handle.
      fault::FaultInjector* injector = executor->fault_injector();
      int failed_attempts = 0;
      while (injector != nullptr &&
             injector->ShouldInject(fault::Site::kKernelRowBatch)) {
        executor->Charge(stream, TaskCost{});  // failed launch overhead
        if (stats != nullptr) ++stats->kernel_row_retries;
        if (++failed_attempts >= options_.max_row_batch_retries) {
          return Status::Unavailable(
              StrPrintf("kernel row batch failed %d times on stream %d",
                        failed_attempts, stream));
        }
      }
      source->ComputeRows(missing, slots, executor, stream);
      kernel_time += executor->StreamTime(stream) - t0;
      if (stats != nullptr) {
        stats->kernel_rows_computed += static_cast<int64_t>(missing.size());
      }
    }
    if (!present.empty()) {
      executor->counters().kernel_values_reused +=
          static_cast<int64_t>(present.size()) * n;
      if (stats != nullptr) {
        stats->kernel_rows_reused += static_cast<int64_t>(present.size());
      }
    }
    ws_rows.clear();
    for (int32_t w : ws) {
      ws_rows.push_back(buffer.Lookup(w));
      GMP_DCHECK(ws_rows.back() != nullptr);
    }

    // Inner loop: solve SMO subproblems restricted to the working set using
    // only buffered kernel values.
    const double inner_t0 = executor->StreamTime(stream);
    const SubproblemBatch::Counts done =
        batch.Run(ws, ws_rows, options_.InnerBudget(ws_size, delta, delta0),
                  options_.eps, y, cvec, diag, f, alpha);
    const int inner_done = done.solved;
    // The whole inner solve runs as ONE device kernel (as in ThunderSVM's
    // local SMO): charge its accumulated reductions and updates in a single
    // launch rather than one launch per subproblem — this is precisely the
    // "solving q/2 subproblems in a batch is cheaper" effect.
    if (inner_done > 0) {
      TaskCost inner_cost = VectorPassCost(
          ws_size, 12.0 * static_cast<double>(inner_done),
          4.0 * static_cast<double>(inner_done) * sizeof(double));
      executor->Charge(stream, inner_cost);
    }
    iterations += inner_done;
    subproblem_time += executor->StreamTime(stream) - inner_t0;

    // The batch's net alpha change reached all n optimality indicators
    // (Equation (8) with the batch's aggregate delta; Line 11 of Alg. 2).
    const int changed = done.changed;
    if (changed > 0) {
      TaskCost cost = VectorPassCost(n, 2.0 * changed,
                                     static_cast<double>(changed) * sizeof(double));
      executor->Charge(stream, cost);
    } else if (inner_done == 0) {
      // The working set admitted no violating pair although the global check
      // saw one; numerically stuck — bail out rather than loop forever.
      GMP_LOG(Warning) << "batch SMO stalled at delta=" << delta;
      break;
    }
  }

  if (stats != nullptr) {
    stats->iterations += iterations;
    stats->outer_rounds += rounds;
    stats->rows_poisoned += buffer.rows_poisoned();
    stats->phases.Add("kernel_values", kernel_time);
    stats->phases.Add("subproblem", subproblem_time);
    stats->phases.Add("other", executor->StreamTime(stream) - time_base -
                                   kernel_time - subproblem_time);
  }

  return FinishSolution(std::move(alpha), std::move(f), y, cvec);
}

}  // namespace gmpsvm
