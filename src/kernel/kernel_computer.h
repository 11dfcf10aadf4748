// Batched kernel-row computation on the simulated device.
//
// A KernelComputer owns references to the row matrices and their precomputed
// squared norms and produces blocks K(batch, targets) — the q-rows-at-a-time
// computation of Section 3.3.1. All work is charged to the executor, and
// every produced value increments the executor's kernel_values_computed
// counter (the quantity the buffer/sharing techniques exist to reduce).

#ifndef GMPSVM_KERNEL_KERNEL_COMPUTER_H_
#define GMPSVM_KERNEL_KERNEL_COMPUTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "device/executor.h"
#include "kernel/kernel_function.h"
#include "simd/simd.h"
#include "sparse/dense_matrix.h"
#include "sparse/ops.h"

namespace gmpsvm {

class KernelComputer {
 public:
  // Kernel values between rows of `a` and rows of `b`. The matrices must
  // outlive the computer. `a` and `b` may be the same object (training).
  // Dots and transforms run on the process-wide SIMD tier, resolved at
  // construction; every tier produces byte-identical values. `b_norms`,
  // when non-empty, is b's AllRowSquaredNorms() computed once by the caller
  // (the predictor keeps its SV pool's) and must outlive the computer; when
  // empty the computer computes them.
  KernelComputer(const CsrMatrix* a, const CsrMatrix* b, KernelParams params,
                 std::span<const double> b_norms = {});

  // Convenience for the symmetric (training) case.
  KernelComputer(const CsrMatrix* x, KernelParams params)
      : KernelComputer(x, x, params) {}

  // norms_b_ may point into norms_a_ or owned_norms_b_.
  KernelComputer(const KernelComputer&) = delete;
  KernelComputer& operator=(const KernelComputer&) = delete;

  const KernelFunction& function() const { return function_; }

  // Computes out[i * targets.size() + j] = K(a.row(batch[i]), b.row(targets[j]))
  // as one batched product, charging `executor` on `stream`.
  void ComputeBlock(std::span<const int32_t> batch, std::span<const int32_t> targets,
                    SimExecutor* executor, StreamId stream, double* out) const;

  // Single kernel value (host-side, uncharged). For tests and reference code.
  double Compute(int64_t row_a, int64_t row_b) const;

  // SIMD path counts of lazily computed kernel values. A caller sums them
  // (per row, then per tile) and records them once, instead of touching the
  // process-wide counters on every Compute.
  struct LazyCounts {
    simd::PathCounts dots;        // SimdPath::kScatterRowDots
    simd::PathCounts transforms;  // SimdPath::kKernelTransform

    LazyCounts& operator+=(const LazyCounts& o) {
      dots += o.dots;
      transforms += o.transforms;
      return *this;
    }
    void Record() const {
      dots.Record(simd::SimdPath::kScatterRowDots);
      transforms.Record(simd::SimdPath::kKernelTransform);
    }
  };

  // Kernel values of one row of `a` against arbitrary target subsets of `b`,
  // computed lazily on the host without charging the executor. The row is
  // scattered once, when the LazyRow is made (see ScatteredRow: one per
  // thread at a time), and every Compute gathers against it.
  class LazyRow {
   public:
    LazyRow(const KernelComputer& computer, int64_t row)
        : computer_(computer),
          row_(row),
          scattered_(*computer.a_, row, computer.ops_) {}

    // out[j] = K(a.row(row), b.row(targets[j])), bit-identical to the
    // corresponding entry of a ComputeBlock block (same scatter-gather
    // accumulation order and transform arithmetic), which is what lets lazy
    // per-row consumers — the prediction cascade — stay byte-compatible with
    // the batched path. Returns the OpStats of one batch row of ComputeBlock
    // over `targets` (the row's nonzeros included), so callers account lazy
    // rows exactly like batched ones, and adds the call to `*counts`. An
    // empty `targets` does nothing.
    OpStats Compute(std::span<const int32_t> targets, double* out,
                    LazyCounts* counts) const;

   private:
    const KernelComputer& computer_;
    int64_t row_;
    ScatteredRow scattered_;
  };

  // K(x_i, x_i) for a row of `a`.
  double SelfKernelA(int64_t row) const {
    return function_.SelfKernel(norms_a_[static_cast<size_t>(row)]);
  }
  // K(x_j, x_j) for a row of `b`.
  double SelfKernelB(int64_t row) const {
    return function_.SelfKernel(norms_b_[static_cast<size_t>(row)]);
  }

 private:
  const CsrMatrix* a_;
  const CsrMatrix* b_;
  KernelFunction function_;
  const simd::SimdOps* ops_;  // resolved tier table; static storage duration
  std::vector<double> norms_a_;
  std::vector<double> owned_norms_b_;  // empty when symmetric or given
  std::span<const double> norms_b_;
  bool symmetric_;
};

// Dense-representation counterpart used by the GPUSVM-like baseline. Same
// contract as KernelComputer but dot products cost O(dim) regardless of
// sparsity.
class DenseKernelComputer {
 public:
  DenseKernelComputer(const DenseMatrix* x, KernelParams params);

  void ComputeBlock(std::span<const int32_t> batch, std::span<const int32_t> targets,
                    SimExecutor* executor, StreamId stream, double* out) const;

  double Compute(int64_t row_a, int64_t row_b) const;

  double SelfKernel(int64_t row) const {
    return function_.SelfKernel(norms_[static_cast<size_t>(row)]);
  }

 private:
  const DenseMatrix* x_;
  KernelFunction function_;
  std::vector<double> norms_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_KERNEL_KERNEL_COMPUTER_H_
