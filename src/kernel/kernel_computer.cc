#include "kernel/kernel_computer.h"

#include "common/logging.h"
#include "common/thread_pool.h"

namespace gmpsvm {
namespace {

// Applies the Gaussian transform in place, row by row through the SIMD tier,
// and returns the flops charged (a closed form, which also sizes the
// host-parallel row partition). The vector transform replays FromDot's exact
// per-lane op sequence (simd/simd_math.h), so every tier — and the scalar
// FromDot itself — agrees bitwise. Records the batched transform on the
// kernel_transform dispatch path.
double TransformBlock(const KernelFunction& fn, const simd::SimdOps& ops,
                      std::span<const double> norms_a,
                      std::span<const int32_t> batch,
                      std::span<const double> norms_b,
                      std::span<const int32_t> targets, double* out,
                      ThreadPool* pool) {
  const size_t num_targets = targets.size();
  const double flops =
      fn.FlopsPerValue() * static_cast<double>(batch.size() * num_targets);
  const int64_t t_start = simd::NowNanos();
  ParallelFor(pool, static_cast<int64_t>(batch.size()), flops,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  const double norm_i = norms_a[static_cast<size_t>(
                      batch[static_cast<size_t>(i)])];
                  ops.gaussian_transform(
                      out + i * static_cast<int64_t>(num_targets),
                      norms_b.data(), targets.data(),
                      static_cast<int64_t>(num_targets), norm_i,
                      fn.params().gamma);
                }
              });
  simd::RecordPath(simd::SimdPath::kKernelTransform,
                   static_cast<int64_t>(batch.size() * num_targets), flops,
                   simd::NowNanos() - t_start);
  return flops;
}

}  // namespace

KernelComputer::KernelComputer(const CsrMatrix* a, const CsrMatrix* b,
                               KernelParams params,
                               std::span<const double> b_norms)
    : a_(a),
      b_(b),
      function_(params),
      ops_(&simd::OpsFor(simd::SimdTier::kAuto)),
      symmetric_(a == b) {
  norms_a_ = a_->AllRowSquaredNorms();
  if (symmetric_) {
    norms_b_ = norms_a_;
  } else if (!b_norms.empty()) {
    GMP_DCHECK(static_cast<int64_t>(b_norms.size()) == b_->rows());
    norms_b_ = b_norms;
  } else {
    owned_norms_b_ = b_->AllRowSquaredNorms();
    norms_b_ = owned_norms_b_;
  }
}

void KernelComputer::ComputeBlock(std::span<const int32_t> batch,
                                  std::span<const int32_t> targets,
                                  SimExecutor* executor, StreamId stream,
                                  double* out) const {
  if (batch.empty() || targets.empty()) return;
  ChargeBlock(ComputeBlockValues(batch, targets, executor->host_pool(), out),
              static_cast<int64_t>(batch.size() * targets.size()), executor,
              stream);
}

OpStats KernelComputer::ComputeBlockValues(std::span<const int32_t> batch,
                                           std::span<const int32_t> targets,
                                           ThreadPool* pool,
                                           double* out) const {
  if (batch.empty() || targets.empty()) return OpStats{};
  OpStats stats = BatchRowDots2(*a_, batch, *b_, targets, out, pool, ops_);
  stats.flops += TransformBlock(function_, *ops_, norms_a_, batch, norms_b_,
                                targets, out, pool);
  return stats;
}

void KernelComputer::ChargeBlock(const OpStats& stats, int64_t values,
                                 SimExecutor* executor, StreamId stream) {
  TaskCost cost;
  cost.flops = stats.flops;
  cost.bytes_read = stats.bytes_read;
  cost.bytes_written = stats.bytes_written;
  cost.parallel_items = values;
  executor->Charge(stream, cost);
  executor->counters().kernel_values_computed += values;
}

double KernelComputer::Compute(int64_t row_a, int64_t row_b) const {
  double dot;
  if (symmetric_) {
    dot = a_->RowDot(row_a, row_b);
  } else {
    // Merge-join over the two sorted rows.
    const auto ia = a_->RowIndices(row_a), ib = b_->RowIndices(row_b);
    const auto va = a_->RowValues(row_a), vb = b_->RowValues(row_b);
    dot = 0.0;
    size_t pa = 0, pb = 0;
    while (pa < ia.size() && pb < ib.size()) {
      if (ia[pa] == ib[pb]) {
        dot += va[pa] * vb[pb];
        ++pa;
        ++pb;
      } else if (ia[pa] < ib[pb]) {
        ++pa;
      } else {
        ++pb;
      }
    }
  }
  return function_.FromDot(dot, norms_a_[static_cast<size_t>(row_a)],
                           norms_b_[static_cast<size_t>(row_b)]);
}

DenseKernelComputer::DenseKernelComputer(const DenseMatrix* x, KernelParams params)
    : x_(x), function_(params) {
  norms_.resize(static_cast<size_t>(x_->rows()));
  for (int64_t r = 0; r < x_->rows(); ++r) {
    norms_[static_cast<size_t>(r)] = x_->RowSquaredNorm(r);
  }
}

void DenseKernelComputer::ComputeBlock(std::span<const int32_t> batch,
                                       std::span<const int32_t> targets,
                                       SimExecutor* executor, StreamId stream,
                                       double* out) const {
  if (batch.empty() || targets.empty()) return;
  ThreadPool* pool = executor->host_pool();
  OpStats stats = DenseBatchRowDots(*x_, batch, targets, out, pool);
  // Dense dots stay scalar (not one of the five tier paths), but the
  // transform shares the vector path — it is bit-identical to FromDot.
  stats.flops += TransformBlock(function_, simd::OpsFor(simd::SimdTier::kAuto),
                                norms_, batch, norms_, targets, out, pool);
  KernelComputer::ChargeBlock(
      stats, static_cast<int64_t>(batch.size() * targets.size()), executor,
      stream);
}

double DenseKernelComputer::Compute(int64_t row_a, int64_t row_b) const {
  return function_.FromDot(x_->RowDot(row_a, row_b),
                           norms_[static_cast<size_t>(row_a)],
                           norms_[static_cast<size_t>(row_b)]);
}

}  // namespace gmpsvm
