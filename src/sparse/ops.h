// Sparse linear-algebra kernels (the cuSPARSE-equivalent substrate).
//
// The routines are pure host computation; each returns an OpStats describing
// the work actually performed, which callers charge to a SimExecutor stream.
// Keeping compute and accounting separate lets the same math back every
// substrate model.
//
// Each routine optionally takes a ThreadPool: batch rows are independent
// (disjoint output slices, per-thread scatter workspaces), so they are
// partitioned across the pool, while the OpStats accumulation always replays
// the serial order — results and stats are byte-identical for any pool size,
// including none.
//
// Inner dot products run on the SIMD kernel tier (src/simd): each routine
// optionally takes a `const simd::SimdOps*` (nullptr = the process-wide
// active tier). Every tier computes the canonical blocked-tree reduction, so
// results are additionally byte-identical across tiers — see simd/simd.h.

#ifndef GMPSVM_SPARSE_OPS_H_
#define GMPSVM_SPARSE_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "simd/simd.h"
#include "sparse/csr_matrix.h"
#include "sparse/dense_matrix.h"

namespace gmpsvm {

class ThreadPool;

// Work performed by one sparse op.
struct OpStats {
  double flops = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;

  OpStats& operator+=(const OpStats& o) {
    flops += o.flops;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    return *this;
  }
};

// Batched sparse row-dot products (the SpMM A_B · B_Tᵀ used to compute kernel
// rows in one shot, Section 3.3.1):
//   out[b * targets.size() + j] = a.row(batch[b]) · b.row(targets[j])
// `a` and `b` may be the same matrix (training); test instances x support
// vectors use two. Implemented as the row-wise SpGEMM schedule, register
// blocked: batch rows are scattered simd::kPanelRows at a time into an
// interleaved dense panel, and each target nonzero is loaded once per panel
// and multiplied into all of its rows (SimdOps::gather_dot_panel).
// O(|batch| * nnz(targets)) flops, with the target nonzeros streamed
// |batch| / kPanelRows times. Each entry is bitwise the single-row
// gather_dot (ScatterRowDots) of its pair.
//
// `out` must have batch.size() * targets.size() entries.
OpStats BatchRowDots2(const CsrMatrix& a, std::span<const int32_t> batch,
                      const CsrMatrix& b, std::span<const int32_t> targets,
                      double* out, ThreadPool* pool = nullptr,
                      const simd::SimdOps* ops = nullptr);

// Single-row slice of BatchRowDots2: dots a.row(row) against an arbitrary
// subset of b's rows through the same scatter workspace, so out[j] is
// bit-identical to the (row, targets[j]) entry of any batched block —
// regardless of which other targets are requested alongside it. Pure host
// computation; the returned OpStats charges the row exactly like one batch
// row of BatchRowDots2 (2 flops per streamed target nonzero; the row and the
// target nonzeros read once). Records one call on the kScatterRowDots path.
OpStats ScatterRowDots(const CsrMatrix& a, int64_t row, const CsrMatrix& b,
                       std::span<const int32_t> targets, double* out,
                       const simd::SimdOps* ops = nullptr);

// Dense counterpart over DenseMatrix rows; O(|batch| * |targets| * dim).
OpStats DenseBatchRowDots(const DenseMatrix& x, std::span<const int32_t> batch,
                          std::span<const int32_t> targets, double* out,
                          ThreadPool* pool = nullptr);

}  // namespace gmpsvm

#endif  // GMPSVM_SPARSE_OPS_H_
