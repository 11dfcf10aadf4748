#include "dist/dist_solver.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "fault/fault_injector.h"
#include "solver/kernel_buffer.h"
#include "solver/working_set.h"

namespace gmpsvm::dist {
namespace {

// Same per-item constants as the single-device solver; the distributed solver
// charges each pass per shard over the shard's range length.
TaskCost VectorPassCost(int64_t n, double flops_per_item, double bytes_per_item) {
  TaskCost cost;
  cost.parallel_items = n;
  cost.flops = flops_per_item * static_cast<double>(n);
  cost.bytes_read = bytes_per_item * static_cast<double>(n);
  return cost;
}

// Serialized size of one working-set candidate: (int32 index, double f).
constexpr double kCandidateBytes = 12.0;

// Joins all shard streams at (max stream time) + the allreduce duration for
// `payload_bytes`, and accounts the merge. A zero payload is a pure barrier
// (it still pays per-round link latency).
void AllreduceBarrier(std::span<const Shard> shards,
                      const ClusterTopology& topology,
                      std::span<const int> devices, double payload_bytes,
                      const char* label, DistStats* dist_stats) {
  double t = 0.0;
  for (const Shard& shard : shards) {
    t = std::max(t, shard.executor->StreamTime(shard.stream));
  }
  const AllreduceCost cost = EstimateAllreduce(topology, devices, payload_bytes);
  for (const Shard& shard : shards) {
    const double dt =
        t + cost.seconds - shard.executor->StreamTime(shard.stream);
    if (dt > 0.0) shard.executor->AdvanceStream(shard.stream, dt, label);
  }
  if (dist_stats != nullptr) {
    ++dist_stats->allreduces;
    dist_stats->allreduce_rounds += cost.rounds;
    dist_stats->merge_seconds += cost.seconds;
    dist_stats->intra_node_bytes += cost.intra_node_bytes;
    dist_stats->inter_node_bytes += cost.inter_node_bytes;
  }
}

}  // namespace

void DistStats::Merge(const DistStats& other) {
  allreduces += other.allreduces;
  allreduce_rounds += other.allreduce_rounds;
  merge_seconds += other.merge_seconds;
  intra_node_bytes += other.intra_node_bytes;
  inter_node_bytes += other.inter_node_bytes;
}

std::vector<std::pair<int64_t, int64_t>> ContiguousShardRanges(int64_t n,
                                                               int num_shards) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  if (num_shards < 1) return ranges;
  ranges.reserve(static_cast<size_t>(num_shards));
  const int64_t s = num_shards;
  for (int64_t j = 0; j < s; ++j) {
    ranges.emplace_back(j * n / s, (j + 1) * n / s);
  }
  return ranges;
}

Result<BinarySolution> DistSmoSolver::Solve(const BinaryProblem& problem,
                                            const KernelComputer& computer,
                                            std::span<const Shard> shards,
                                            SolverStats* stats,
                                            DistStats* dist_stats) const {
  GMP_RETURN_NOT_OK(options_.Validate());
  if (options_.working_set.drop_policy !=
      WorkingSetConfig::DropPolicy::kOldest) {
    return Status::InvalidArgument(
        "distributed solve requires DropPolicy::kOldest");
  }
  if (topology_ == nullptr) {
    return Status::InvalidArgument("distributed solve requires a topology");
  }
  if (shards.empty()) {
    return Status::InvalidArgument("distributed solve requires >= 1 shard");
  }
  const int64_t n = problem.n();
  if (n < 2) {
    return Status::InvalidArgument("binary problem needs at least 2 instances");
  }
  if (problem.C <= 0) {
    return Status::InvalidArgument("C must be positive");
  }
  int64_t cursor = 0;
  for (size_t si = 0; si < shards.size(); ++si) {
    const Shard& shard = shards[si];
    if (shard.executor == nullptr) {
      return Status::InvalidArgument("shard executor is null");
    }
    if (shard.begin != cursor || shard.end <= shard.begin) {
      return Status::InvalidArgument(
          "shards must be non-empty contiguous ranges covering [0, n)");
    }
    cursor = shard.end;
    if (shard.device < 0 || shard.device >= topology_->num_devices()) {
      return Status::InvalidArgument("shard device outside the topology");
    }
    // Fault parity with the single-device solver requires a single injector
    // consult sequence; only the coordinator may carry one.
    if (si > 0 && shard.executor->fault_injector() != nullptr) {
      return Status::InvalidArgument(
          "only the coordinator shard may have a fault injector");
    }
  }
  if (cursor != n) {
    return Status::InvalidArgument("shards do not cover the problem");
  }

  std::vector<int> devices(shards.size());
  for (size_t si = 0; si < shards.size(); ++si) devices[si] = shards[si].device;

  SimExecutor* coord = shards[0].executor;
  const StreamId coord_stream = shards[0].stream;

  const auto& y = problem.y;
  const std::span<const int8_t> y_span(y);
  std::vector<double> cvec(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    cvec[static_cast<size_t>(i)] = problem.CFor(y[static_cast<size_t>(i)]);
  }

  WorkingSetSelector selector(options_.working_set, n);
  const int ws_size = selector.ws_size();
  const int64_t buffer_rows =
      std::max<int64_t>(options_.buffer_rows > 0 ? options_.buffer_rows : ws_size,
                        ws_size);

  // The buffer is column-sharded: each shard reserves the slice of every
  // buffered row covering its own range (slices sum to the single-device
  // footprint). The coordinator reserves first, with the single-device retry
  // loop, so the kDeviceAlloc consult sequence is unchanged; secondary shard
  // executors are injector-free, so their reservations only fail on genuine
  // OOM.
  std::vector<DeviceAllocation> reservations;
  if (options_.buffer_on_device) {
    reservations.reserve(shards.size());
    for (size_t si = 0; si < shards.size(); ++si) {
      const Shard& shard = shards[si];
      const size_t slice_bytes =
          static_cast<size_t>(buffer_rows * (shard.end - shard.begin)) *
          sizeof(double);
      if (si == 0) {
        for (int attempt = 1;; ++attempt) {
          auto reservation = shard.executor->Allocate(slice_bytes);
          if (reservation.ok()) {
            reservations.push_back(std::move(*reservation));
            break;
          }
          if (!reservation.status().IsUnavailable() ||
              attempt >= options_.max_alloc_retries) {
            return reservation.status();
          }
          if (stats != nullptr) ++stats->alloc_retries;
        }
      } else {
        GMP_ASSIGN_OR_RETURN(DeviceAllocation reservation,
                             shard.executor->Allocate(slice_bytes));
        reservations.push_back(std::move(reservation));
      }
    }
  }
  KernelBuffer buffer(n, buffer_rows, options_.buffer_policy);
  buffer.SetFaultInjector(coord->fault_injector());

  // Solver state (host-resident; shards charge their slices of each pass).
  std::vector<double> alpha(static_cast<size_t>(n), 0.0);
  std::vector<double> f(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    f[static_cast<size_t>(i)] = -static_cast<double>(y[static_cast<size_t>(i)]);
  }
  for (const Shard& shard : shards) {
    shard.executor->Charge(
        shard.stream, VectorPassCost(shard.end - shard.begin, 1.0, sizeof(double)));
  }

  std::vector<double> diag(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    diag[static_cast<size_t>(i)] =
        computer.SelfKernelA(problem.rows[static_cast<size_t>(i)]);
  }
  for (const Shard& shard : shards) {
    shard.executor->Charge(
        shard.stream, VectorPassCost(shard.end - shard.begin, 2.0, sizeof(double)));
  }

  const double time_base = coord->StreamTime(coord_stream);
  double kernel_time = 0.0;
  double subproblem_time = 0.0;

  std::vector<int32_t> present, missing, missing_globals;
  std::vector<double> block_scratch;
  std::vector<WorkingSetSelector::ShardCandidates> candidates(shards.size());
  std::vector<const double*> ws_rows;
  SubproblemBatch batch;
  int64_t iterations = 0;
  int64_t rounds = 0;
  double delta0 = -1.0;

  for (;; ++rounds) {
    if (rounds >= options_.max_outer_rounds) {
      GMP_LOG(Warning) << "distributed batch SMO hit max_outer_rounds";
      break;
    }

    // Global convergence check: per-shard partial reductions merged by one
    // tiny allreduce. min/max merge bit-identically in any order.
    const ViolationExtremes ext = FindViolationExtremes(f, alpha, y_span, cvec);
    for (const Shard& shard : shards) {
      shard.executor->Charge(
          shard.stream,
          VectorPassCost(shard.end - shard.begin, 2.0, 2 * sizeof(double)));
    }
    AllreduceBarrier(shards, *topology_, devices, 2 * sizeof(double),
                     "allreduce_delta", dist_stats);
    const double delta = ext.f_low_max - ext.f_up_min;
    if (delta < options_.eps) break;
    if (delta0 < 0) delta0 = delta;

    // Working-set refresh: each shard selects its own candidates; the merge
    // admits exactly what the single-shard Update() would (working_set.h).
    const int needed = selector.BeginDistributedRefresh();
    for (size_t si = 0; si < shards.size(); ++si) {
      const Shard& shard = shards[si];
      const int64_t len = shard.end - shard.begin;
      shard.executor->Charge(
          shard.stream,
          VectorPassCost(len, 2.0 * std::log2(static_cast<double>(len) + 2.0),
                         2 * sizeof(double)));
      candidates[si] = selector.CollectShardCandidates(shard.begin, shard.end,
                                                       needed, f, alpha, y_span,
                                                       cvec);
    }
    AllreduceBarrier(shards, *topology_, devices,
                     2.0 * static_cast<double>(needed) * kCandidateBytes,
                     "allreduce_ws", dist_stats);
    const std::vector<int32_t>& ws =
        selector.FinishDistributedRefresh(candidates, f);

    buffer.Pin(ws);
    buffer.Partition(ws, &present, &missing);
    if (!missing.empty()) {
      const double t0 = coord->StreamTime(coord_stream);
      GMP_ASSIGN_OR_RETURN(std::vector<double*> slots, buffer.InsertBatch(missing));
      // The batched row launch is one logical operation; its transient-fault
      // retry loop runs against the coordinator's injector exactly as on a
      // single device.
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
      // Each shard computes the slice of every missing row covering its own
      // range. Block values are per-element independent of the target subset
      // (kernel_computer.h), so the concatenated slices are bit-identical to
      // the single-device full rows.
      missing_globals.resize(missing.size());
      for (size_t k = 0; k < missing.size(); ++k) {
        missing_globals[k] =
            problem.rows[static_cast<size_t>(missing[k])];
      }
      for (const Shard& shard : shards) {
        const int64_t len = shard.end - shard.begin;
        const std::span<const int32_t> targets(
            problem.rows.data() + shard.begin, static_cast<size_t>(len));
        block_scratch.resize(missing.size() * static_cast<size_t>(len));
        computer.ComputeBlock(missing_globals, targets, shard.executor,
                              shard.stream, block_scratch.data());
        for (size_t k = 0; k < missing.size(); ++k) {
          std::memcpy(slots[k] + shard.begin,
                      block_scratch.data() + k * static_cast<size_t>(len),
                      static_cast<size_t>(len) * sizeof(double));
        }
        TaskCost copy_cost;
        copy_cost.parallel_items = static_cast<int64_t>(missing.size()) * len;
        copy_cost.bytes_read =
            static_cast<double>(missing.size()) * static_cast<double>(len) *
            sizeof(double);
        copy_cost.bytes_written = copy_cost.bytes_read;
        shard.executor->Charge(shard.stream, copy_cost);
      }
      // The inner loop (coordinator) reads fresh rows only at working-set
      // columns: gather those entries of every computed row.
      AllreduceBarrier(shards, *topology_, devices,
                       static_cast<double>(missing.size()) *
                           static_cast<double>(ws_size) * sizeof(double),
                       "ws_gather", dist_stats);
      kernel_time += coord->StreamTime(coord_stream) - t0;
      if (stats != nullptr) {
        stats->kernel_rows_computed += static_cast<int64_t>(missing.size());
      }
    }
    if (!present.empty()) {
      for (const Shard& shard : shards) {
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

    // Inner loop and f update on the coordinator — the single-device
    // subproblem batch itself, so every alpha/f update is the same arithmetic
    // in the same order.
    const double inner_t0 = coord->StreamTime(coord_stream);
    const SubproblemBatch::Counts done =
        batch.Run(ws, ws_rows, options_.InnerBudget(ws_size, delta, delta0),
                  options_.eps, y_span, cvec, diag, f, alpha);
    const int inner_done = done.solved;
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
    AllreduceBarrier(shards, *topology_, devices,
                     static_cast<double>(ws_size) * sizeof(double),
                     "allreduce_alpha", dist_stats);

    // The aggregate f update to non-members ran in the batch; each shard
    // charges only its own slice of it.
    const int changed = done.changed;
    if (changed > 0) {
      for (const Shard& shard : shards) {
        shard.executor->Charge(
            shard.stream,
            VectorPassCost(shard.end - shard.begin, 2.0 * changed,
                           static_cast<double>(changed) * sizeof(double)));
      }
    } else if (inner_done == 0) {
      GMP_LOG(Warning) << "distributed batch SMO stalled at delta=" << delta;
      break;
    }
  }

  // Final sync: the pair finishes when every shard's stream has drained.
  AllreduceBarrier(shards, *topology_, devices, 0.0, "dist_sync", dist_stats);

  if (stats != nullptr) {
    stats->iterations += iterations;
    stats->outer_rounds += rounds;
    stats->rows_poisoned += buffer.rows_poisoned();
    stats->phases.Add("kernel_values", kernel_time);
    stats->phases.Add("subproblem", subproblem_time);
    stats->phases.Add("other", coord->StreamTime(coord_stream) - time_base -
                                   kernel_time - subproblem_time);
  }

  return FinishSolution(std::move(alpha), std::move(f), y_span, cvec);
}

}  // namespace gmpsvm::dist
