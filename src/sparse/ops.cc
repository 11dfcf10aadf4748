#include "sparse/ops.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/thread_pool.h"

namespace gmpsvm {
namespace {

// Reusable scatter workspace, one per thread, grown on demand. Every routine
// leaves the entries it touched at zero again (rows are un-scattered after
// use), so reuse across calls — and across matrices of different widths — is
// safe, and the former per-call O(cols) allocation in the solver's inner loop
// is gone.
std::vector<double>& ScatterWorkspace(int64_t cols) {
  static thread_local std::vector<double> workspace;
  if (workspace.size() < static_cast<size_t>(cols)) {
    workspace.resize(static_cast<size_t>(cols), 0.0);
  }
  return workspace;
}

// Interleaved counterpart for register-blocked panels: column c of panel row
// r lives at [c * kPanelRows + r]. Same zero-on-exit discipline as
// ScatterWorkspace. The returned base is 32-byte aligned, so each column's
// kPanelRows doubles are one aligned vector load.
double* PanelWorkspace(int64_t cols) {
  static thread_local std::vector<double> workspace;
  return simd::AlignedPanel(workspace, cols);
}

// Writes (or, with `values` false, re-zeroes) rows batch[first..first+rows)
// of `a` into the interleaved panel.
void ScatterPanel(const CsrMatrix& a, std::span<const int32_t> batch,
                  int64_t first, int rows, bool values, double* panel) {
  for (int r = 0; r < rows; ++r) {
    const int64_t row = batch[static_cast<size_t>(first + r)];
    const auto idx = a.RowIndices(row);
    const auto val = a.RowValues(row);
    for (size_t p = 0; p < idx.size(); ++p) {
      panel[static_cast<int64_t>(idx[p]) * simd::kPanelRows + r] =
          values ? val[p] : 0.0;
    }
  }
}

// out[j] = a.row(row) · b.row(targets[j]) through the calling thread's
// scatter workspace, left zero again. Returns the target nonzeros streamed.
int64_t ScatterDots(const CsrMatrix& a, int64_t row, const CsrMatrix& b,
                    std::span<const int32_t> targets, double* out,
                    const simd::SimdOps& ops) {
  double* dense = ScatterWorkspace(a.cols()).data();
  const auto idx = a.RowIndices(row);
  const auto val = a.RowValues(row);
  for (size_t p = 0; p < idx.size(); ++p) dense[idx[p]] = val[p];
  int64_t nnz_targets = 0;
  for (size_t tj = 0; tj < targets.size(); ++tj) {
    const auto tidx = b.RowIndices(targets[tj]);
    const auto tval = b.RowValues(targets[tj]);
    out[tj] = ops.gather_dot(tval.data(), tidx.data(),
                             static_cast<int64_t>(tidx.size()), dense);
    nnz_targets += static_cast<int64_t>(tidx.size());
  }
  for (const int32_t col : idx) dense[col] = 0.0;
  return nnz_targets;
}

void RunRows(ThreadPool* pool, int64_t n, int64_t min_chunk,
             const std::function<void(int64_t, int64_t)>& body) {
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(n, body, min_chunk);
  } else if (n > 0) {
    body(0, n);
  }
}

}  // namespace

// Register blocked: batch rows are scattered kPanelRows at a time into an
// interleaved panel, and each target row's nonzeros stream through
// gather_dot_panel once per panel instead of once per batch row. The last
// panel may be partial; its unused rows stay zero and their dots are
// dropped. A lone last row skips the panel: a 1-row panel pays for
// kPanelRows lanes and a kPanelRows-wide workspace stride, and measured
// slower than the plain gather_dot it would replace. Panels write disjoint
// `out` rows, so they are partitioned across the pool; the stats below
// replay the serial accumulation order so the returned doubles are
// bit-identical for any pool size. Every panel row runs the SIMD tier's
// canonical blocked-tree reduction, so each dot is bitwise the gather_dot
// of ScatterRowDots, on every tier.
OpStats BatchRowDots2(const CsrMatrix& a, std::span<const int32_t> batch,
                      const CsrMatrix& b, std::span<const int32_t> targets,
                      double* out, ThreadPool* pool, const simd::SimdOps* ops) {
  const simd::SimdOps& simd_ops =
      ops != nullptr ? *ops : simd::OpsFor(simd::SimdTier::kAuto);
  const int64_t num_rows = static_cast<int64_t>(batch.size());
  const int64_t num_targets = static_cast<int64_t>(targets.size());
  const int64_t num_panels =
      (num_rows + simd::kPanelRows - 1) / simd::kPanelRows;
  const int64_t t_start = simd::NowNanos();
  RunRows(pool, num_panels, /*min_chunk=*/1, [&](int64_t begin, int64_t end) {
    double* panel = PanelWorkspace(a.cols());
    double dots[simd::kPanelRows];
    for (int64_t pi = begin; pi < end; ++pi) {
      const int64_t first = pi * simd::kPanelRows;
      const int rows = static_cast<int>(
          std::min<int64_t>(simd::kPanelRows, num_rows - first));
      if (rows == 1) {
        ScatterDots(a, batch[static_cast<size_t>(first)], b, targets,
                    out + first * num_targets, simd_ops);
        continue;
      }
      ScatterPanel(a, batch, first, rows, /*values=*/true, panel);
      double* out_panel = out + first * num_targets;
      for (int64_t tj = 0; tj < num_targets; ++tj) {
        const int64_t trow = targets[static_cast<size_t>(tj)];
        const auto tidx = b.RowIndices(trow);
        const auto tval = b.RowValues(trow);
        simd_ops.gather_dot_panel(tval.data(), tidx.data(),
                                  static_cast<int64_t>(tidx.size()), panel,
                                  dots);
        for (int r = 0; r < rows; ++r) out_panel[r * num_targets + tj] = dots[r];
      }
      ScatterPanel(a, batch, first, rows, /*values=*/false, panel);
    }
  });
  const int64_t t_nanos = simd::NowNanos() - t_start;

  // Every batch row streams the same target set, so the per-row nnz total is
  // one value; accumulate it in target order exactly as the compute loop
  // used to.
  double nnz_targets = 0.0;
  if (!batch.empty()) {
    for (size_t tj = 0; tj < targets.size(); ++tj) {
      nnz_targets += static_cast<double>(b.RowIndices(targets[tj]).size());
    }
  }
  OpStats stats;
  double nnz_targets_once = 0.0;
  for (size_t bi = 0; bi < batch.size(); ++bi) {
    stats.flops += 2.0 * nnz_targets;
    // Per-row traffic: the batch row itself; the target matrix is tiled
    // through on-chip memory and read from DRAM once per *batch*, not once
    // per row — this amortization is why computing q rows together is far
    // cheaper per row than computing them one by one (Section 3.3.1's
    // ">10x cheaper when q > 10" claim; see bench_ablation_batch_rows).
    stats.bytes_read += static_cast<double>(a.RowIndices(batch[bi]).size()) *
                        (sizeof(double) + sizeof(int32_t));
    stats.bytes_written += static_cast<double>(num_targets) * sizeof(double);
    nnz_targets_once = nnz_targets;
  }
  stats.bytes_read += nnz_targets_once * (sizeof(double) + sizeof(int32_t));
  simd::RecordPath(simd::SimdPath::kBatchRowDots,
                   static_cast<int64_t>(batch.size()) *
                       static_cast<int64_t>(nnz_targets),
                   2.0 * static_cast<double>(batch.size()) * nnz_targets,
                   t_nanos);
  return stats;
}

OpStats ScatterRowDots(const CsrMatrix& a, int64_t row, const CsrMatrix& b,
                       std::span<const int32_t> targets, double* out,
                       const simd::SimdOps* ops) {
  const int64_t nnz_targets = ScatterDots(
      a, row, b, targets, out,
      ops != nullptr ? *ops : simd::OpsFor(simd::SimdTier::kAuto));
  // Charged like one batch row of BatchRowDots2: the scattered row and the
  // streamed target nonzeros read once, one output double per target.
  OpStats stats;
  stats.flops = 2.0 * static_cast<double>(nnz_targets);
  stats.bytes_read =
      (static_cast<double>(a.RowIndices(row).size()) +
       static_cast<double>(nnz_targets)) *
      (sizeof(double) + sizeof(int32_t));
  stats.bytes_written = static_cast<double>(targets.size()) * sizeof(double);
  // Counters only: a per-row op is too fine-grained to time (see
  // docs/performance.md).
  simd::RecordPath(simd::SimdPath::kScatterRowDots, nnz_targets, stats.flops);
  return stats;
}

OpStats DenseBatchRowDots(const DenseMatrix& x, std::span<const int32_t> batch,
                          std::span<const int32_t> targets, double* out,
                          ThreadPool* pool) {
  const size_t num_targets = targets.size();
  RunRows(pool, static_cast<int64_t>(batch.size()), /*min_chunk=*/1,
          [&](int64_t begin, int64_t end) {
            for (int64_t bi = begin; bi < end; ++bi) {
              double* out_row = out + bi * static_cast<int64_t>(num_targets);
              for (size_t tj = 0; tj < num_targets; ++tj) {
                out_row[tj] =
                    x.RowDot(batch[static_cast<size_t>(bi)], targets[tj]);
              }
            }
          });
  OpStats stats;
  const double cols = static_cast<double>(x.cols());
  const double pairs = static_cast<double>(batch.size() * num_targets);
  stats.flops = 2.0 * pairs * cols;
  // Same tiling amortization as the sparse path: batch rows read per row,
  // target matrix read once per batch.
  stats.bytes_read = (static_cast<double>(batch.size()) * cols +
                      static_cast<double>(num_targets) * cols) *
                     sizeof(double);
  stats.bytes_written = pairs * sizeof(double);
  return stats;
}

OpStats SpMV(const CsrMatrix& x, std::span<const int32_t> rows,
             std::span<const double> v, double* out, ThreadPool* pool,
             const simd::SimdOps* ops) {
  const simd::SimdOps& simd_ops =
      ops != nullptr ? *ops : simd::OpsFor(simd::SimdTier::kAuto);
  const int64_t t_start = simd::NowNanos();
  RunRows(pool, static_cast<int64_t>(rows.size()), /*min_chunk=*/256,
          [&](int64_t begin, int64_t end) {
            for (int64_t j = begin; j < end; ++j) {
              const int64_t row = rows[static_cast<size_t>(j)];
              const auto idx = x.RowIndices(row);
              const auto val = x.RowValues(row);
              out[j] = simd_ops.gather_dot(val.data(), idx.data(),
                                           static_cast<int64_t>(idx.size()),
                                           v.data());
            }
          });
  const int64_t t_nanos = simd::NowNanos() - t_start;
  OpStats stats;
  double nnz_streamed = 0.0;
  for (size_t j = 0; j < rows.size(); ++j) {
    nnz_streamed += static_cast<double>(x.RowIndices(rows[j]).size());
  }
  stats.flops = 2.0 * nnz_streamed;
  stats.bytes_read = nnz_streamed * (sizeof(double) + sizeof(int32_t));
  stats.bytes_written = static_cast<double>(rows.size()) * sizeof(double);
  simd::RecordPath(simd::SimdPath::kSpMV,
                   static_cast<int64_t>(nnz_streamed), stats.flops, t_nanos);
  return stats;
}

}  // namespace gmpsvm
