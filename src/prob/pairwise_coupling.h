// Multi-class probability estimation by pairwise coupling (Section 2.2.2,
// Wu, Lin & Weng 2004). Given the k*k matrix of pairwise probability
// estimates r_st = P(y = s | y in {s,t}, x), solves problem (14):
//
//   min_p sum_s sum_{t != s} (r_ts p_s - r_st p_t)^2   s.t.  sum p_s = 1
//
// Two solution methods are provided:
//   * kGaussianElimination — the paper's choice (Equation 15): form Q and
//     solve the KKT system directly. This is what GMP-SVM runs on the GPU
//     (the paper uses cuSPARSE; we run it through the device substrate).
//   * kIterative — LibSVM's fixed-point iteration, used by the LibSVM
//     reference implementation. Produces the same argmax and near-identical
//     probabilities; tests cross-validate the two.

#ifndef GMPSVM_PROB_PAIRWISE_COUPLING_H_
#define GMPSVM_PROB_PAIRWISE_COUPLING_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "simd/simd.h"

namespace gmpsvm {

enum class CouplingMethod { kGaussianElimination, kIterative };

struct CouplingOptions {
  CouplingMethod method = CouplingMethod::kGaussianElimination;
  // Iterative method's stopping tolerance (LibSVM's default). It runs at
  // most max(100, k) sweeps, LibSVM's own limit.
  double eps = 0.005;  // scaled by 1/k internally, as in LibSVM
};

// Couples one instance. `r` is k*k row-major; r[s*k + t] = P(s | {s,t}, x)
// for s != t (the diagonal is ignored). Returns p of length k, nonnegative,
// summing to 1; kInvalidArgument if r holds a NaN estimate. The solve's
// inner loops run on the process-wide SIMD tier; every tier gives the same
// bits.
// Host-only (uncharged): the predictor calls it once per row and charges the
// tile's coupling as one batch task (Phase (iii)-(3) of the GPU baseline and
// GMP-SVM).
Result<std::vector<double>> CoupleProbabilities(std::span<const double> r, int k,
                                                const CouplingOptions& options);

// Couples `rows` instances (simd::kPanelRows or simd::kWidePanelRows) by
// Gaussian elimination, one per SIMD lane of the tier's couple_panel.
// `pairs` holds each instance's k(k-1)/2 pair probabilities, pair-major in
// the model's pair order (0,1), (0,2), ..., (1,2), ..., at lane stride
// `stride` >= rows: pairs[pi * stride + lane] = P(s | {s,t}, x_lane), so
// the span may start inside a wider panel and reads it in place. Lane L's
// probabilities go to out[L*k, (L+1)*k) and its status to entry L of the
// result; entries from `rows` on stay OK. Each lane is bitwise
// CoupleProbabilities of the r its pairs define (r_st = P, r_ts = 1 - P),
// errors included: a lane that needs the ridge retry, does not sum to a
// positive value or holds a NaN estimate is solved again through
// CoupleProbabilities, as is every lane on the scalar tier, which has no
// panel solve. `scratch` is reused across calls. options.method must be
// kGaussianElimination. Host-only (uncharged) like CoupleProbabilities, and
// records one coupling call per lane.
std::array<Status, simd::kWidePanelRows> CouplePanel(
    std::span<const double> pairs, int64_t stride, int rows, int k,
    const CouplingOptions& options, std::vector<double>* scratch,
    double* out);

}  // namespace gmpsvm

#endif  // GMPSVM_PROB_PAIRWISE_COUPLING_H_
