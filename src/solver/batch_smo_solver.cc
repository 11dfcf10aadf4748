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

constexpr double kInf = std::numeric_limits<double>::infinity();

// Serialized size of one working-set candidate: (int32 index, double f).
constexpr double kCandidateBytes = 12.0;

// Attempts at reserving the kernel buffer under transient (injected)
// allocation failures.
constexpr int kMaxAllocAttempts = 4;

// The shard-group rules of BatchSmoSolver::Solve (batch_smo_solver.h).
Status CheckShardGroup(const BatchSmoOptions& options, const Placement& placement,
                       int64_t n, bool warm, bool has_source) {
  if (placement.topology == nullptr) {
    return Status::InvalidArgument("a shard group requires a topology");
  }
  if (options.working_set.drop_policy != WorkingSetConfig::DropPolicy::kOldest) {
    return Status::InvalidArgument("a shard group requires DropPolicy::kOldest");
  }
  const std::span<const dist::Shard> shards = placement.shards;
  if (shards.size() > 1 && warm) {
    return Status::InvalidArgument(
        "a warm seed cannot be sharded; solve warm pairs on one shard");
  }
  if (shards.size() > 1 && has_source) {
    return Status::InvalidArgument(
        "a shard group computes its own kernel rows; pass no row source");
  }
  int64_t cursor = 0;
  for (size_t si = 0; si < shards.size(); ++si) {
    const dist::Shard& shard = shards[si];
    if (shard.executor == nullptr) {
      return Status::InvalidArgument("shard executor is null");
    }
    if (shard.begin != cursor || shard.end <= shard.begin) {
      return Status::InvalidArgument(
          "shards must be non-empty contiguous ranges covering [0, n)");
    }
    cursor = shard.end;
    if (shard.device < 0 || shard.device >= placement.topology->num_devices()) {
      return Status::InvalidArgument("shard device outside the topology");
    }
    // Fault parity with one shard needs a single injector consult sequence;
    // only the coordinator may carry one.
    if (si > 0 && shard.executor->fault_injector() != nullptr) {
      return Status::InvalidArgument(
          "only the coordinator shard may have a fault injector");
    }
  }
  if (cursor != n) {
    return Status::InvalidArgument("shards do not cover the problem");
  }
  return Status::OK();
}

// Alpha seeding: clamps `warm_alpha` into the box, repairs the equality
// constraint (clamping can break it), then rebuilds f from the seed with one
// batched product over the seeds.
void SeedAlpha(const BinaryProblem& problem, const KernelComputer& computer,
               std::span<const double> warm_alpha, std::span<const double> cvec,
               SimExecutor* executor, StreamId stream, std::vector<double>* alpha,
               std::vector<double>* f) {
  const int64_t n = problem.n();
  const auto& y = problem.y;
  double drift = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double a = std::clamp(warm_alpha[static_cast<size_t>(i)], 0.0,
                                cvec[static_cast<size_t>(i)]);
    (*alpha)[static_cast<size_t>(i)] = a;
    drift += a * static_cast<double>(y[i]);
  }
  for (int64_t i = 0; i < n && std::abs(drift) > 1e-12; ++i) {
    double& a = (*alpha)[static_cast<size_t>(i)];
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
    if ((*alpha)[static_cast<size_t>(j)] > 0.0) {
      seed_locals.push_back(static_cast<int32_t>(j));
    }
  }
  if (seed_locals.empty()) return;
  std::vector<int32_t> seed_globals(seed_locals.size());
  for (size_t m = 0; m < seed_locals.size(); ++m) {
    seed_globals[m] = problem.rows[static_cast<size_t>(seed_locals[m])];
  }
  std::vector<double> block(seed_locals.size() * static_cast<size_t>(n));
  computer.ComputeBlock(seed_globals, problem.rows, executor, stream,
                        block.data());
  for (size_t m = 0; m < seed_locals.size(); ++m) {
    const double coef = (*alpha)[static_cast<size_t>(seed_locals[m])] *
                        static_cast<double>(y[seed_locals[m]]);
    const double* row = block.data() + m * static_cast<size_t>(n);
    for (int64_t i = 0; i < n; ++i) (*f)[static_cast<size_t>(i)] += coef * row[i];
  }
  executor->Charge(
      stream, VectorPassCost(n, 2.0 * static_cast<double>(seed_locals.size()),
                             2 * sizeof(double)));
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
        if (eta <= 0) eta = kSmoTau;
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
  if (max_outer_rounds <= 0) {
    return Status::InvalidArgument(
        StrPrintf("max_outer_rounds must be positive, got %lld",
                  static_cast<long long>(max_outer_rounds)));
  }
  if (max_row_batch_retries < 1) {
    return Status::InvalidArgument(StrPrintf(
        "max_row_batch_retries must be >= 1, got %d", max_row_batch_retries));
  }
  return Status::OK();
}

int BatchSmoOptions::InnerBudget(int ws_size, double delta, double delta0) const {
  const int cap = std::max(2, ws_size / 2);
  if (inner_policy != InnerPolicy::kDeltaAdaptive) return cap;
  // Large delta (far from optimal) => fewer iterations per working set;
  // near convergence => optimize the set thoroughly.
  const double ratio = std::clamp(delta / delta0, 0.0, 1.0);
  return std::min(std::max(16, static_cast<int>(cap * (1.0 - 0.75 * ratio))), cap);
}

Result<BinarySolution> BatchSmoSolver::Solve(const BinaryProblem& problem,
                                             const KernelComputer& computer,
                                             const Placement& placement,
                                             SolverStats* stats,
                                             std::span<const double> warm_alpha,
                                             KernelRowSource* source) const {
  GMP_RETURN_NOT_OK(options_.Validate());
  const int64_t n = problem.n();
  if (n < 2) {
    return Status::InvalidArgument("binary problem needs at least 2 instances");
  }
  if (problem.C <= 0) {
    return Status::InvalidArgument("C must be positive");
  }
  if (!warm_alpha.empty() && static_cast<int64_t>(warm_alpha.size()) != n) {
    return Status::InvalidArgument("warm_alpha size mismatch");
  }
  if (!placement.shards.empty()) {
    GMP_RETURN_NOT_OK(CheckShardGroup(options_, placement, n, !warm_alpha.empty(),
                                      source != nullptr));
  }
  // Declared before the solver state so its row scratch is freed last: the
  // order of a solve's frees decides where later allocations (a model's
  // per-pair arrays) land on the heap, which moves prediction wall time.
  DirectRowSource direct(&problem, &computer);
  const dist::Shard whole{placement.executor, placement.stream, 0, 0, n};
  const std::span<const dist::Shard> shards =
      placement.shards.empty() ? std::span<const dist::Shard>(&whole, 1)
                               : placement.shards;
  const bool group = shards.size() > 1;
  SimExecutor* coord = shards[0].executor;
  const StreamId coord_stream = shards[0].stream;

  const auto& y = problem.y;
  // Per-instance box constraints (class-weighted C).
  std::vector<double> cvec(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    cvec[static_cast<size_t>(i)] = problem.CFor(y[static_cast<size_t>(i)]);
  }

  WorkingSetSelector selector(options_.working_set, n);
  const int ws_size = selector.ws_size();

  // Reserve the GPU buffer against the device budget, each shard the slice
  // of every buffered row covering its own range (one shard: the whole
  // buffer). The coordinator reserves first and retries a transient
  // (injected) failure in place; genuine OOM propagates. Other shards carry
  // no injector, so theirs fail only on genuine OOM.
  const auto slice_bytes = [&](const dist::Shard& shard) {
    return static_cast<size_t>(ws_size * (shard.end - shard.begin)) *
           sizeof(double);
  };
  DeviceAllocation buffer_reservation;
  std::vector<DeviceAllocation> peer_reservations;
  for (int attempt = 1;; ++attempt) {
    auto reservation = coord->Allocate(slice_bytes(shards[0]));
    if (reservation.ok()) {
      buffer_reservation = std::move(*reservation);
      break;
    }
    if (!reservation.status().IsUnavailable() || attempt >= kMaxAllocAttempts) {
      return reservation.status();
    }
    if (stats != nullptr) ++stats->alloc_retries;
  }
  for (const dist::Shard& shard : shards.subspan(1)) {
    GMP_ASSIGN_OR_RETURN(DeviceAllocation reservation,
                         shard.executor->Allocate(slice_bytes(shard)));
    peer_reservations.push_back(std::move(reservation));
  }
  KernelBuffer buffer(n, ws_size, options_.buffer_policy);
  buffer.SetFaultInjector(coord->fault_injector());

  // One n-length pass, each shard charging its own range.
  const auto charge_pass = [&](double flops_per_item, double bytes_per_item) {
    for (const dist::Shard& shard : shards) {
      shard.executor->Charge(shard.stream,
                             VectorPassCost(shard.end - shard.begin,
                                            flops_per_item, bytes_per_item));
    }
  };
  // A shard group joins its streams at each merge; one shard has none.
  std::vector<int> devices;
  if (group) {
    for (const dist::Shard& shard : shards) devices.push_back(shard.device);
  }
  const auto merge = [&](double payload_bytes, const char* label) {
    if (!group) return;
    dist::AllreduceBarrier(shards, devices, *placement.topology, payload_bytes,
                           label, placement.dist_stats);
  };

  // Solver state (host-resident).
  std::vector<double> alpha(static_cast<size_t>(n), 0.0);
  std::vector<double> f(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) f[static_cast<size_t>(i)] = -static_cast<double>(y[i]);
  charge_pass(1.0, sizeof(double));
  if (!warm_alpha.empty()) {
    SeedAlpha(problem, computer, warm_alpha, cvec, coord, coord_stream, &alpha, &f);
  }

  std::vector<double> diag(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    diag[static_cast<size_t>(i)] =
        computer.SelfKernelA(problem.rows[static_cast<size_t>(i)]);
  }
  charge_pass(2.0, sizeof(double));

  // Kernel rows: the caller's source (or direct rows) on one shard; on a
  // group, each shard's column slice.
  if (source == nullptr) source = &direct;
  std::vector<DirectRowSource> slices;
  std::vector<WorkingSetSelector::ShardCandidates> candidates;
  if (group) {
    slices.reserve(shards.size());
    for (const dist::Shard& shard : shards) {
      slices.emplace_back(&problem, &computer, shard.begin, shard.end);
    }
    candidates.resize(shards.size());
  }

  const double time_base = coord->StreamTime(coord_stream);
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

    // Global convergence check: one parallel reduction over n (per-shard
    // partial reductions merged by one tiny allreduce; min/max merge
    // bit-identically in any order).
    const ViolationExtremes ext = FindViolationExtremes(f, alpha, y, cvec);
    charge_pass(2.0, 2 * sizeof(double));
    merge(2 * sizeof(double), "allreduce_delta");
    const double delta = ext.f_low_max - ext.f_up_min;
    if (delta < options_.eps) break;
    if (delta0 < 0) delta0 = delta;

    // Refresh the working set. The charge prices the paper's device sort of
    // f (n log n per shard); the host reaches the same set by partial
    // selection. A group merges per-shard candidates, admitting exactly what
    // the single-shard Update() would (working_set.h).
    for (const dist::Shard& shard : shards) {
      const int64_t len = shard.end - shard.begin;
      shard.executor->Charge(
          shard.stream,
          VectorPassCost(len, 2.0 * std::log2(static_cast<double>(len) + 2.0),
                         2 * sizeof(double)));
    }
    const std::vector<int32_t>& ws = [&]() -> const std::vector<int32_t>& {
      if (!group) return selector.Update(f, alpha, y, cvec);
      const int needed = selector.BeginDistributedRefresh();
      for (size_t si = 0; si < shards.size(); ++si) {
        candidates[si] = selector.CollectShardCandidates(
            shards[si].begin, shards[si].end, needed, f, alpha, y, cvec);
      }
      merge(2.0 * static_cast<double>(needed) * kCandidateBytes, "allreduce_ws");
      return selector.FinishDistributedRefresh(candidates, f);
    }();

    // Ensure all working-set rows are buffered; batch-compute the missing
    // ones (this is THE kernel-value computation of Figure 11).
    buffer.Pin(ws);
    buffer.Partition(ws, &present, &missing);
    if (!missing.empty()) {
      const double t0 = coord->StreamTime(coord_stream);
      GMP_ASSIGN_OR_RETURN(std::vector<double*> slots, buffer.InsertBatch(missing));
      // Recovery: under an attached fault injector the batched row launch can
      // fail transiently. Each failed attempt burns a launch slot on the
      // coordinator's stream; bounded retries either get through (the
      // injector's consecutive cap guarantees progress for well-formed plans)
      // or give up with kUnavailable for the trainer's pair-level retry.
      fault::FaultInjector* injector = coord->fault_injector();
      int failed_attempts = 0;
      while (injector != nullptr &&
             injector->ShouldInject(fault::Site::kKernelRowBatch)) {
        coord->Charge(coord_stream, TaskCost{});  // failed launch overhead
        if (stats != nullptr) ++stats->kernel_row_retries;
        if (++failed_attempts >= options_.max_row_batch_retries) {
          return Status::Unavailable(
              StrPrintf("kernel row batch failed %d times on stream %d",
                        failed_attempts, coord_stream));
        }
      }
      for (size_t si = 0; si < shards.size(); ++si) {
        KernelRowSource* rows = group ? &slices[si] : source;
        rows->ComputeRows(missing, slots, shards[si].executor, shards[si].stream);
      }
      // The inner loop (coordinator) reads fresh rows only at working-set
      // columns: gather those entries of every computed row.
      merge(static_cast<double>(missing.size()) * static_cast<double>(ws_size) *
                sizeof(double),
            "ws_gather");
      kernel_time += coord->StreamTime(coord_stream) - t0;
      if (stats != nullptr) {
        stats->kernel_rows_computed += static_cast<int64_t>(missing.size());
      }
    }
    if (!present.empty()) {
      for (const dist::Shard& shard : shards) {
        shard.executor->counters().kernel_values_reused +=
            static_cast<int64_t>(present.size()) * (shard.end - shard.begin);
      }
      if (stats != nullptr) {
        stats->kernel_rows_reused += static_cast<int64_t>(present.size());
      }
    }
    ws_rows.clear();
    for (int32_t w : ws) {
      ws_rows.push_back(buffer.Lookup(w));
      GMP_DCHECK(ws_rows.back() != nullptr);
    }

    // Inner loop on the coordinator: solve SMO subproblems restricted to the
    // working set using only buffered kernel values.
    const double inner_t0 = coord->StreamTime(coord_stream);
    const SubproblemBatch::Counts done =
        batch.Run(ws, ws_rows, options_.InnerBudget(ws_size, delta, delta0),
                  options_.eps, y, cvec, diag, f, alpha);
    const int inner_done = done.solved;
    // The whole inner solve runs as ONE device kernel (as in ThunderSVM's
    // local SMO): charge its accumulated reductions and updates in a single
    // launch rather than one launch per subproblem — this is precisely the
    // "solving q/2 subproblems in a batch is cheaper" effect.
    if (inner_done > 0) {
      coord->Charge(coord_stream,
                    VectorPassCost(ws_size, 12.0 * static_cast<double>(inner_done),
                                   4.0 * static_cast<double>(inner_done) *
                                       sizeof(double)));
    }
    iterations += inner_done;
    subproblem_time += coord->StreamTime(coord_stream) - inner_t0;

    // Broadcast the batch's net alpha deltas so every shard can update its
    // slice of f.
    merge(static_cast<double>(ws_size) * sizeof(double), "allreduce_alpha");

    // The batch's net alpha change reached all n optimality indicators
    // (Equation (8) with the batch's aggregate delta; Line 11 of Alg. 2).
    const int changed = done.changed;
    if (changed > 0) {
      charge_pass(2.0 * changed, static_cast<double>(changed) * sizeof(double));
    } else if (inner_done == 0) {
      // The working set admitted no violating pair although the global check
      // saw one; numerically stuck — bail out rather than loop forever.
      GMP_LOG(Warning) << "batch SMO stalled at delta=" << delta;
      break;
    }
  }

  // Final sync: the solve finishes when every shard's stream has drained.
  merge(0.0, "dist_sync");

  if (stats != nullptr) {
    stats->iterations += iterations;
    stats->outer_rounds += rounds;
    stats->rows_poisoned += buffer.rows_poisoned();
    stats->phases.Add("kernel_values", kernel_time);
    stats->phases.Add("subproblem", subproblem_time);
    stats->phases.Add("other", coord->StreamTime(coord_stream) - time_base -
                                   kernel_time - subproblem_time);
  }

  return FinishSolution(std::move(alpha), std::move(f), y, cvec);
}

}  // namespace gmpsvm
