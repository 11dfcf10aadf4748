#include "kernel/kernel_computer.h"

#include "common/logging.h"
#include "common/thread_pool.h"

namespace gmpsvm {
namespace {

// Applies the dot->kernel transform of one row in place through the SIMD
// tier. The vector transforms replay FromDot's exact per-lane op sequence
// (simd/simd_math.h), so every tier — and the scalar FromDot itself — agrees
// bitwise.
void TransformRow(const KernelFunction& fn, const simd::SimdOps& ops,
                  double norm_row, std::span<const double> norms_b,
                  std::span<const int32_t> targets, double* row) {
  const KernelParams& p = fn.params();
  const int64_t n = static_cast<int64_t>(targets.size());
  switch (p.type) {
    case KernelType::kGaussian:
      ops.gaussian_transform(row, norms_b.data(), targets.data(), n, norm_row,
                             p.gamma);
      break;
    case KernelType::kLinear:
      break;  // K = dot; nothing to transform
    case KernelType::kPolynomial:
      ops.poly_transform(row, n, p.gamma, p.coef0, p.degree);
      break;
    case KernelType::kSigmoid:
      ops.sigmoid_transform(row, n, p.gamma, p.coef0);
      break;
  }
}

// Applies the dot->kernel transform in place and returns the flops charged
// (a closed form, so the host-parallel row partition cannot perturb it).
// Records the batched transform on the kernel_transform dispatch path.
double TransformBlock(const KernelFunction& fn, const simd::SimdOps& ops,
                      std::span<const double> norms_a,
                      std::span<const int32_t> batch,
                      std::span<const double> norms_b,
                      std::span<const int32_t> targets, double* out,
                      ThreadPool* pool) {
  const size_t num_targets = targets.size();
  const int64_t t_start = simd::NowNanos();
  const auto rows_body = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const double norm_i = norms_a[static_cast<size_t>(batch[static_cast<size_t>(i)])];
      TransformRow(fn, ops, norm_i, norms_b, targets,
                   out + i * static_cast<int64_t>(num_targets));
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(static_cast<int64_t>(batch.size()), rows_body,
                      /*min_chunk=*/1);
  } else {
    rows_body(0, static_cast<int64_t>(batch.size()));
  }
  const double flops =
      fn.FlopsPerValue() * static_cast<double>(batch.size() * num_targets);
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
  ThreadPool* pool = executor->host_pool();
  OpStats stats = BatchRowDots2(*a_, batch, *b_, targets, out, pool, ops_);
  stats.flops += TransformBlock(function_, *ops_, norms_a_, batch, norms_b_,
                                targets, out, pool);

  TaskCost cost;
  cost.flops = stats.flops;
  cost.bytes_read = stats.bytes_read;
  cost.bytes_written = stats.bytes_written;
  cost.parallel_items = static_cast<int64_t>(batch.size() * targets.size());
  executor->Charge(stream, cost);
  executor->counters().kernel_values_computed +=
      static_cast<int64_t>(batch.size() * targets.size());
}

OpStats KernelComputer::LazyRow::Compute(std::span<const int32_t> targets,
                                        double* out,
                                        LazyCounts* counts) const {
  if (targets.empty()) return OpStats{};
  const KernelComputer& c = computer_;
  OpStats stats = scattered_.Dots(*c.b_, targets, out, &counts->dots);
  TransformRow(c.function_, *c.ops_, c.norms_a_[static_cast<size_t>(row_)],
               c.norms_b_, targets, out);
  const double transform_flops =
      c.function_.FlopsPerValue() * static_cast<double>(targets.size());
  counts->transforms.Add(static_cast<int64_t>(targets.size()),
                         transform_flops);
  stats.flops += transform_flops;
  return stats;
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

  TaskCost cost;
  cost.flops = stats.flops;
  cost.bytes_read = stats.bytes_read;
  cost.bytes_written = stats.bytes_written;
  cost.parallel_items = static_cast<int64_t>(batch.size() * targets.size());
  executor->Charge(stream, cost);
  executor->counters().kernel_values_computed +=
      static_cast<int64_t>(batch.size() * targets.size());
}

double DenseKernelComputer::Compute(int64_t row_a, int64_t row_b) const {
  return function_.FromDot(x_->RowDot(row_a, row_b),
                           norms_[static_cast<size_t>(row_a)],
                           norms_[static_cast<size_t>(row_b)]);
}

}  // namespace gmpsvm
