#include "prob/pairwise_coupling.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace gmpsvm {
namespace {

// Builds the Q matrix of Equation (15):
//   Q_ss = sum_{u != s} r_us^2,   Q_st = -r_st * r_ts (s != t).
// No transpose scratch: every off-diagonal entry is a single rounded product
// (IEEE multiplication commutes, so Q_st and Q_ts are the same bits), and
// one pass over the upper triangle fills both symmetric halves. The diagonal
// accumulates column sums of r ⊙ r row-by-row through the tier's elementwise
// ops: lane s only ever touches column s and the row order u = 0..k-1 is
// fixed, so every tier adds in the identical per-lane sequence (mul_neg
// rounds each square once; axpy_neg with factor 1.0 subtracts the negated
// square, an exact sign flip). Callers leave r's diagonal at zero (it has no
// meaning in Equation 15), which makes the accumulated r_ss^2 term and its
// subtraction exact no-ops; a nonzero diagonal would still cancel up to one
// rounding. A NaN estimate (e.g. from a NaN feature) is rejected: r_st
// reaches diagonal t, and it would leave the solution undefined.
Status BuildQ(std::span<const double> r, int k, const simd::SimdOps& ops,
              std::vector<double>* q) {
  q->resize(static_cast<size_t>(k) * k);
  std::vector<double> diag(static_cast<size_t>(k), 0.0);
  std::vector<double> sq(static_cast<size_t>(k));
  for (int u = 0; u < k; ++u) {
    const double* r_row = r.data() + static_cast<size_t>(u) * k;
    ops.mul_neg(sq.data(), r_row, r_row, k);       // sq[s] = -(r_us^2)
    ops.axpy_neg(diag.data(), sq.data(), k, 1.0);  // diag[s] += r_us^2
  }
  for (int s = 0; s < k; ++s) {
    const double* r_row = r.data() + static_cast<size_t>(s) * k;
    double* q_row = q->data() + static_cast<size_t>(s) * k;
    for (int t = s + 1; t < k; ++t) {
      const double v = -(r_row[t] * r[static_cast<size_t>(t) * k + s]);
      q_row[t] = v;
      (*q)[static_cast<size_t>(t) * k + s] = v;
    }
    const double r_ss = r_row[s];
    q_row[s] = diag[static_cast<size_t>(s)] - r_ss * r_ss;
  }
  for (double d : diag) {
    if (std::isnan(d)) {
      return Status::InvalidArgument("pairwise coupling: r holds a NaN estimate");
    }
  }
  return Status::OK();
}

// Solves Q x = e by Gaussian elimination with partial pivoting, adding a
// ridge and retrying if a pivot vanishes ("a small value is added to Q when
// its inversion does not exist"). Returns p = x / sum(x), clamped
// nonnegative. Row updates and the back-substitution dot run on the SIMD
// tier (axpy is per-lane exact; the dot uses the canonical blocked tree),
// so every tier solves bit-identically.
Result<std::vector<double>> SolveDirect(std::span<const double> r, int k,
                                        const simd::SimdOps& ops) {
  std::vector<double> q;
  GMP_RETURN_NOT_OK(BuildQ(r, k, ops, &q));
  const double kRidge0 = 0.0;
  for (double ridge = kRidge0;; ridge = (ridge == 0.0 ? 1e-10 : ridge * 100)) {
    std::vector<double> m = q;
    for (int s = 0; s < k; ++s) m[static_cast<size_t>(s) * k + s] += ridge;
    std::vector<double> x(static_cast<size_t>(k), 1.0);  // rhs e

    bool singular = false;
    std::vector<int> perm(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) perm[static_cast<size_t>(i)] = i;
    for (int col = 0; col < k && !singular; ++col) {
      // Partial pivot.
      int pivot = col;
      double best = std::abs(m[static_cast<size_t>(perm[col]) * k + col]);
      for (int row = col + 1; row < k; ++row) {
        const double v = std::abs(m[static_cast<size_t>(perm[row]) * k + col]);
        if (v > best) {
          best = v;
          pivot = row;
        }
      }
      if (best < 1e-12) {
        singular = true;
        break;
      }
      std::swap(perm[static_cast<size_t>(col)], perm[static_cast<size_t>(pivot)]);
      const size_t prow = static_cast<size_t>(perm[col]);
      const double inv_pivot = 1.0 / m[prow * k + col];
      for (int row = col + 1; row < k; ++row) {
        const size_t rrow = static_cast<size_t>(perm[row]);
        const double factor = m[rrow * k + col] * inv_pivot;
        if (factor == 0.0) continue;
        ops.axpy_neg(&m[rrow * k + col], &m[prow * k + col], k - col, factor);
        x[rrow] -= factor * x[prow];
      }
    }
    if (singular) {
      if (ridge > 1.0) {
        return Status::Internal("pairwise coupling: Q remained singular");
      }
      continue;  // retry with a larger ridge
    }
    // Back substitution. The row-times-solution product runs through the
    // tier's canonical dot so the subtraction order is lane-independent.
    std::vector<double> sol(static_cast<size_t>(k));
    for (int col = k - 1; col >= 0; --col) {
      const size_t prow = static_cast<size_t>(perm[col]);
      const double v =
          x[prow] - ops.dot(m.data() + prow * k + col + 1,
                            sol.data() + col + 1, k - col - 1);
      sol[static_cast<size_t>(col)] = v / m[prow * k + col];
    }
    // Normalize; clamp tiny negatives from finite precision.
    double sum = 0.0;
    for (double& v : sol) {
      v = std::max(v, 0.0);
      sum += v;
    }
    if (sum <= 0.0) {
      if (ridge > 1.0) {
        return Status::Internal("pairwise coupling produced a zero vector");
      }
      continue;
    }
    for (double& v : sol) v /= sum;
    return sol;
  }
}

// LibSVM's multiclass_probability fixed-point iteration. The Q·p matvec and
// the elementwise rescaling update run on the SIMD tier: the matvec uses the
// canonical blocked-tree dot, and the update is per-lane exact, so every
// tier iterates bit-identically.
Result<std::vector<double>> SolveIterative(std::span<const double> r, int k,
                                           const CouplingOptions& options,
                                           const simd::SimdOps& ops) {
  std::vector<double> q;
  GMP_RETURN_NOT_OK(BuildQ(r, k, ops, &q));
  std::vector<double> p(static_cast<size_t>(k), 1.0 / k);
  std::vector<double> qp(static_cast<size_t>(k), 0.0);
  const double eps = options.eps / k;

  // The per-t serial work below runs 3k divisions per sweep if written
  // naively (diff, the pqp rescale, and the elementwise update); at ~10x the
  // latency of a multiply they rival the vectorized dot/update work. Hoist
  // the diagonal reciprocals once and rescale pqp by a squared reciprocal.
  // This is shared scalar code, so every tier sees the identical sequence.
  std::vector<double> inv_diag(static_cast<size_t>(k));
  for (int t = 0; t < k; ++t) {
    inv_diag[static_cast<size_t>(t)] = 1.0 / q[static_cast<size_t>(t) * k + t];
  }

  // LibSVM's multiclass_probability limit.
  const int max_iterations = std::max(100, k);
  int iter = 0;
  for (; iter < max_iterations; ++iter) {
    double pqp = 0.0;
    for (int t = 0; t < k; ++t) {
      const double v = ops.dot(q.data() + static_cast<size_t>(t) * k,
                               p.data(), k);
      qp[static_cast<size_t>(t)] = v;
      pqp += p[static_cast<size_t>(t)] * v;
    }
    double max_error = 0.0;
    for (int t = 0; t < k; ++t) {
      max_error = std::max(max_error, std::abs(qp[static_cast<size_t>(t)] - pqp));
    }
    if (max_error < eps) break;

    for (int t = 0; t < k; ++t) {
      const double diff = (-qp[static_cast<size_t>(t)] + pqp) *
                          inv_diag[static_cast<size_t>(t)];
      p[static_cast<size_t>(t)] += diff;
      const double inv_opd = 1.0 / (1.0 + diff);
      pqp = (pqp + diff * (diff * q[static_cast<size_t>(t) * k + t] +
                           2.0 * qp[static_cast<size_t>(t)])) *
            (inv_opd * inv_opd);
      ops.coupling_update(qp.data(), p.data(),
                          q.data() + static_cast<size_t>(t) * k, k, diff);
    }
  }
  if (iter >= max_iterations) {
    GMP_LOG(Warning) << "pairwise coupling iteration limit reached";
  }
  return p;
}

}  // namespace

Result<std::vector<double>> CoupleProbabilities(std::span<const double> r, int k,
                                                const CouplingOptions& options) {
  if (k < 2) return Status::InvalidArgument("coupling needs k >= 2 classes");
  if (r.size() != static_cast<size_t>(k) * k) {
    return Status::InvalidArgument(
        StrPrintf("r has %zu entries; expected %d", r.size(), k * k));
  }
  const simd::SimdOps& ops = simd::OpsFor(simd::SimdTier::kAuto);
  // Counters only: callers time the solve and add it via RecordPathNanos.
  simd::RecordPath(simd::SimdPath::kCoupling,
                   static_cast<int64_t>(k) * k,
                   (2.0 / 3.0) * static_cast<double>(k) * k * k);
  if (options.method == CouplingMethod::kGaussianElimination) {
    return SolveDirect(r, k, ops);
  }
  return SolveIterative(r, k, options, ops);
}

std::array<Status, simd::kWidePanelRows> CouplePanel(
    std::span<const double> pairs, int64_t stride, int rows, int k,
    const CouplingOptions& options, std::vector<double>* scratch,
    double* out) {
  GMP_DCHECK(options.method == CouplingMethod::kGaussianElimination);
  std::array<Status, simd::kWidePanelRows> status;
  const int64_t num_pairs = static_cast<int64_t>(k) * (k - 1) / 2;
  if (k < 2 || (rows != simd::kPanelRows && rows != simd::kWidePanelRows) ||
      stride < rows ||
      static_cast<int64_t>(pairs.size()) < (num_pairs - 1) * stride + rows) {
    status.fill(Status::InvalidArgument(StrPrintf(
        "coupling panel needs k >= 2, %d or %d rows at a stride of at least "
        "that, and %lld pair probabilities per lane; got k = %d, %d rows at "
        "stride %lld and %zu values",
        simd::kPanelRows, simd::kWidePanelRows,
        static_cast<long long>(num_pairs), k, rows,
        static_cast<long long>(stride), pairs.size())));
    return status;
  }
  const simd::SimdOps& ops = simd::OpsFor(simd::SimdTier::kAuto);
  const int redo = ops.couple_panel(
      pairs.data(), stride, rows, k,
      simd::AlignedPanel(*scratch, simd::CouplePanelCells(k), rows), out);
  // The lanes solved here count as CoupleProbabilities would count them; a
  // lane solved again counts inside CoupleProbabilities.
  simd::PathCounts counts;
  std::vector<double> r;
  for (int lane = 0; lane < rows; ++lane) {
    if ((redo >> lane & 1) == 0) {
      counts.Add(static_cast<int64_t>(k) * k,
                 (2.0 / 3.0) * static_cast<double>(k) * k * k);
      continue;
    }
    r.assign(static_cast<size_t>(k) * k, 0.0);
    const double* p = pairs.data() + lane;
    for (int s = 0; s < k; ++s) {
      for (int t = s + 1; t < k; ++t, p += stride) {
        r[static_cast<size_t>(s) * k + t] = *p;
        r[static_cast<size_t>(t) * k + s] = 1.0 - *p;
      }
    }
    Result<std::vector<double>> row = CoupleProbabilities(r, k, options);
    if (!row.ok()) {
      status[static_cast<size_t>(lane)] = row.status();
      continue;
    }
    std::copy(row.value().begin(), row.value().end(), out + lane * k);
  }
  counts.Record(simd::SimdPath::kCoupling);
  return status;
}

}  // namespace gmpsvm
