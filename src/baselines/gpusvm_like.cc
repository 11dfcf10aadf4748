#include "baselines/gpusvm_like.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "kernel/kernel_computer.h"
#include "solver/kernel_buffer.h"
#include "solver/working_set.h"

namespace gmpsvm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<BinarySolution> GpuSvmLikeTrainer::Train(const Dataset& dataset,
                                                SimExecutor* executor,
                                                SolverStats* stats) const {
  if (dataset.num_classes() != 2) {
    return Status::InvalidArgument("GPUSVM supports binary problems only");
  }
  const int64_t n = dataset.size();
  const double c = options_.c;

  // Densify: the defining representational choice. The dense matrix (and
  // its transfer) are charged at full O(n * dim) size.
  DenseMatrix dense(dataset.features().rows(), dataset.features().cols(),
                    dataset.features().ToDense());
  GMP_ASSIGN_OR_RETURN(DeviceAllocation data_reservation,
                       executor->Allocate(dense.ByteSize()));
  executor->Transfer(kDefaultStream, static_cast<double>(dense.ByteSize()),
                     TransferDirection::kHostToDevice);
  DenseKernelComputer computer(&dense, options_.kernel);

  // Labels: class 0 plays +1, as in MakePairProblem.
  std::vector<int8_t> y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    y[static_cast<size_t>(i)] =
        dataset.labels()[static_cast<size_t>(i)] == 0 ? int8_t{1} : int8_t{-1};
  }

  size_t cache_bytes = options_.cache_bytes;
  DeviceAllocation cache_reservation = executor->AllocateHalving(&cache_bytes);
  KernelBuffer cache(n, KernelBuffer::CacheRows(n, cache_bytes),
                     KernelBuffer::Policy::kLru);
  std::vector<int32_t> batch_one(1);
  std::vector<int32_t> all_rows(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) all_rows[static_cast<size_t>(i)] = static_cast<int32_t>(i);

  const auto get_row = [&](int32_t i) -> const double* {
    if (const double* row = cache.Lookup(i)) {
      executor->Charge(kDefaultStream, VectorPassCost(n, 0.0, sizeof(double)));
      executor->counters().kernel_values_reused += n;
      if (stats != nullptr) ++stats->kernel_rows_reused;
      return row;
    }
    batch_one[0] = i;
    // Nothing is pinned, so the insert always finds a victim.
    double* slot = ValueOrDie(cache.InsertBatch(batch_one))[0];
    computer.ComputeBlock(batch_one, all_rows, executor, kDefaultStream, slot);
    if (stats != nullptr) ++stats->kernel_rows_computed;
    return slot;
  };

  std::vector<double> alpha(static_cast<size_t>(n), 0.0);
  std::vector<double> f(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) f[static_cast<size_t>(i)] = -static_cast<double>(y[i]);
  std::vector<double> diag(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) diag[static_cast<size_t>(i)] = computer.SelfKernel(i);
  executor->Charge(kDefaultStream, VectorPassCost(n, 3.0, sizeof(double)));

  int64_t iterations = 0;
  for (;; ++iterations) {
    if (iterations >= options_.max_iterations) {
      GMP_LOG(Warning) << "GPUSVM-like hit max_iterations";
      break;
    }
    // First-order selection (the original GPUSVM heuristic): most violating
    // pair by plain optimality indicators.
    int32_t u = -1, l = -1;
    double f_u = kInf, f_l = -kInf;
    for (int64_t i = 0; i < n; ++i) {
      const double fi = f[static_cast<size_t>(i)];
      if (InUpSet(y[i], alpha[i], c) && fi < f_u) {
        f_u = fi;
        u = static_cast<int32_t>(i);
      }
      if (InLowSet(y[i], alpha[i], c) && fi > f_l) {
        f_l = fi;
        l = static_cast<int32_t>(i);
      }
    }
    executor->Charge(kDefaultStream, VectorPassCost(n, 2.0, 2 * sizeof(double)));
    if (u < 0 || l < 0 || f_l - f_u < options_.eps) break;

    const double* row_u = get_row(u);
    const double* row_l = get_row(l);

    // Alpha update: the shared SMO step with C for both bounds (first-order
    // pairs are always feasible ascent directions).
    const SmoPairDelta step =
        SmoUpdatePair(u, l, y, c, c, diag[static_cast<size_t>(u)],
                      diag[static_cast<size_t>(l)], row_u[l], f, alpha);
    executor->Charge(kDefaultStream, VectorPassCost(1, 20.0, 0.0));

    const double yu_dau = y[u] * step.d_alpha_u;
    const double yl_dal = y[l] * step.d_alpha_l;
    for (int64_t i = 0; i < n; ++i) {
      f[static_cast<size_t>(i)] += yu_dau * row_u[i] + yl_dal * row_l[i];
    }
    executor->Charge(kDefaultStream, VectorPassCost(n, 4.0, 3 * sizeof(double)));
  }

  if (stats != nullptr) {
    stats->iterations += iterations;
    stats->outer_rounds += iterations;
  }

  return FinishSolution(std::move(alpha), std::move(f), y,
                        std::vector<double>(static_cast<size_t>(n), c));
}

}  // namespace gmpsvm
