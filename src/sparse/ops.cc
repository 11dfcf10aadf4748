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

// Interleaved counterpart for register-blocked panels: column c of row r of
// a `width`-row panel lives at [c * width + r]. Same zero-on-exit discipline
// as ScatterWorkspace, so one workspace serves every width. The returned base
// is 32-byte aligned, so each column's rows are whole aligned vector loads.
double* PanelWorkspace(int64_t cols, int width) {
  static thread_local std::vector<double> workspace;
  return simd::AlignedPanel(workspace, cols, width);
}

// The widest panel: four AVX2 vectors.
constexpr int kMaxPanelRows = 16;

// Targets whose panel dots are stored together: one AVX2 vector of each out
// row, written through 4 x 4 register transposes.
constexpr int64_t kTargetGroup = 4;

// A panel wider than simd::kPanelRows is used only while its workspace fits
// in this many bytes (8,192 columns at 16 rows), so wide sparse data keeps a
// kPanelRows x cols workspace.
constexpr int64_t kWidePanelBytes = int64_t{1} << 20;

// Batch rows [first, first + rows) in a `width`-row panel; width 1 is a lone
// row, which takes gather_dot.
struct Panel {
  int64_t first;
  int width;
  int rows;
};

// 16-row panels while at least 16 rows remain, 8-row panels while more than
// 4 remain, then one kPanelRows-row panel, each wide one only if it is at
// most `widest` rows and fits kWidePanelBytes; a lone last row gets no
// panel, because a 1-row panel pays for kPanelRows lanes and measured slower
// than gather_dot.
std::vector<Panel> PlanPanels(int64_t num_rows, int64_t cols, int widest) {
  const auto fits = [cols, widest](int width) {
    const int64_t bytes = width * cols * static_cast<int64_t>(sizeof(double));
    return width <= widest && bytes <= kWidePanelBytes;
  };
  std::vector<Panel> panels;
  for (int64_t first = 0; first < num_rows;) {
    const int64_t left = num_rows - first;
    int width = 1;
    if (left >= kMaxPanelRows && fits(kMaxPanelRows)) {
      width = kMaxPanelRows;
    } else if (left > simd::kPanelRows && fits(2 * simd::kPanelRows)) {
      width = 2 * simd::kPanelRows;
    } else if (left > 1) {
      width = simd::kPanelRows;
    }
    const int rows = static_cast<int>(std::min<int64_t>(width, left));
    panels.push_back({first, width, rows});
    first += rows;
  }
  return panels;
}

// Writes (or, with `values` false, re-zeroes) the panel's batch rows of `a`
// into the interleaved workspace.
void ScatterPanel(const CsrMatrix& a, std::span<const int32_t> batch,
                  const Panel& p, bool values, double* panel) {
  for (int r = 0; r < p.rows; ++r) {
    const int64_t row = batch[static_cast<size_t>(p.first + r)];
    const auto idx = a.RowIndices(row);
    const auto val = a.RowValues(row);
    for (size_t q = 0; q < idx.size(); ++q) {
      panel[static_cast<int64_t>(idx[q]) * p.width + r] =
          values ? val[q] : 0.0;
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

}  // namespace

// Register blocked: batch rows are scattered into interleaved panels of 16,
// 8 or 4 rows (PlanPanels), and each target row's nonzeros stream through
// gather_dot_panel once per panel instead of once per batch row; each group
// of kTargetGroup targets' dots reaches `out` in one transpose. A partial
// panel's unused rows stay zero and their dots are dropped. Panels write
// disjoint `out` rows, so they are partitioned across the pool by the
// flops charged for them; the stats are a closed form of the op's sizes,
// integer-valued doubles that are exact whatever the partition. Every panel
// row runs the SIMD tier's canonical blocked-tree reduction, so each dot is
// bitwise the gather_dot of ScatterRowDots, on every tier and at every panel
// width.
OpStats BatchRowDots2(const CsrMatrix& a, std::span<const int32_t> batch,
                      const CsrMatrix& b, std::span<const int32_t> targets,
                      double* out, ThreadPool* pool, const simd::SimdOps* ops) {
  const simd::SimdOps& simd_ops =
      ops != nullptr ? *ops : simd::OpsFor(simd::SimdTier::kAuto);
  const int64_t num_targets = static_cast<int64_t>(targets.size());
  // The scalar tier makes one pass over a target's nonzeros per panel row,
  // so a wider panel would only spread those passes over a larger
  // workspace; it measured slower on wide rows and keeps 4-row panels.
  const int widest =
      simd_ops.lane_width > 1 ? kMaxPanelRows : simd::kPanelRows;
  const std::vector<Panel> panels =
      PlanPanels(static_cast<int64_t>(batch.size()), a.cols(), widest);
  // Every batch row streams the same target set. Per-row traffic: the batch
  // row itself; the target matrix is tiled through on-chip memory and read
  // from DRAM once per *batch*, not once per row — this amortization is why
  // computing q rows together is far cheaper per row than computing them one
  // by one (Section 3.3.1's ">10x cheaper when q > 10" claim; see
  // bench_ablation_batch_rows).
  int64_t nnz_targets = 0;
  int64_t nnz_batch = 0;
  if (!batch.empty()) {
    for (const int32_t t : targets) nnz_targets += b.RowNnz(t);
    for (const int32_t r : batch) nnz_batch += a.RowNnz(r);
  }
  const double rows = static_cast<double>(batch.size());
  OpStats stats;
  stats.flops = 2.0 * rows * static_cast<double>(nnz_targets);
  stats.bytes_read = static_cast<double>(nnz_batch + nnz_targets) *
                     (sizeof(double) + sizeof(int32_t));
  stats.bytes_written =
      rows * static_cast<double>(num_targets) * sizeof(double);

  const int64_t t_start = simd::NowNanos();
  ParallelFor(pool, static_cast<int64_t>(panels.size()), stats.flops,
              [&](int64_t begin, int64_t end) {
    // One group of targets' dots, dots[t * kMaxPanelRows + r] for target t
    // and panel row r.
    double dots[kTargetGroup * kMaxPanelRows];
    for (int64_t pi = begin; pi < end; ++pi) {
      const Panel& p = panels[static_cast<size_t>(pi)];
      double* out_panel = out + p.first * num_targets;
      if (p.width == 1) {
        ScatterDots(a, batch[static_cast<size_t>(p.first)], b, targets,
                    out_panel, simd_ops);
        continue;
      }
      double* panel = PanelWorkspace(a.cols(), p.width);
      ScatterPanel(a, batch, p, /*values=*/true, panel);
      for (int64_t tj = 0; tj < num_targets; tj += kTargetGroup) {
        const int64_t group = std::min(kTargetGroup, num_targets - tj);
        for (int64_t t = 0; t < group; ++t) {
          const int64_t trow = targets[static_cast<size_t>(tj + t)];
          const auto tidx = b.RowIndices(trow);
          const auto tval = b.RowValues(trow);
          simd_ops.gather_dot_panel(tval.data(), tidx.data(),
                                    static_cast<int64_t>(tidx.size()), panel,
                                    p.width, dots + t * kMaxPanelRows);
        }
        // Out row r of the panel takes the group's dots as one transpose.
        simd_ops.transpose(dots, kMaxPanelRows, group, p.rows, out_panel + tj,
                           num_targets);
      }
      ScatterPanel(a, batch, p, /*values=*/false, panel);
    }
  });
  simd::RecordPath(simd::SimdPath::kBatchRowDots,
                   static_cast<int64_t>(batch.size()) * nnz_targets,
                   stats.flops, simd::NowNanos() - t_start);
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
  OpStats stats;
  const double cols = static_cast<double>(x.cols());
  const double pairs = static_cast<double>(batch.size() * num_targets);
  stats.flops = 2.0 * pairs * cols;
  ParallelFor(pool, static_cast<int64_t>(batch.size()), stats.flops,
              [&](int64_t begin, int64_t end) {
                for (int64_t bi = begin; bi < end; ++bi) {
                  double* out_row =
                      out + bi * static_cast<int64_t>(num_targets);
                  for (size_t tj = 0; tj < num_targets; ++tj) {
                    out_row[tj] =
                        x.RowDot(batch[static_cast<size_t>(bi)], targets[tj]);
                  }
                }
              });
  // Same tiling amortization as the sparse path: batch rows read per row,
  // target matrix read once per batch.
  stats.bytes_read = (static_cast<double>(batch.size()) * cols +
                      static_cast<double>(num_targets) * cols) *
                     sizeof(double);
  stats.bytes_written = pairs * sizeof(double);
  return stats;
}

}  // namespace gmpsvm
