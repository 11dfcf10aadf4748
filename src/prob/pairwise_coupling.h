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

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "simd/simd.h"

namespace gmpsvm {

enum class CouplingMethod { kGaussianElimination, kIterative };

struct CouplingOptions {
  CouplingMethod method = CouplingMethod::kGaussianElimination;
  // Iterative method controls (LibSVM defaults).
  int max_iterations = 100;
  double eps = 0.005;  // scaled by 1/k internally, as in LibSVM
  // SIMD tier for the solve's inner loops (kAuto = process-wide active
  // tier). Every tier is byte-identical — a speed knob only.
  simd::SimdTier simd = simd::SimdTier::kAuto;
};

// Couples one instance. `r` is k*k row-major; r[s*k + t] = P(s | {s,t}, x)
// for s != t (the diagonal is ignored). Returns p of length k, nonnegative,
// summing to 1; kInvalidArgument if r holds a NaN estimate.
// Host-only (uncharged): the predictor calls it once per row and charges the
// tile's coupling as one batch task (Phase (iii)-(3) of the GPU baseline and
// GMP-SVM).
Result<std::vector<double>> CoupleProbabilities(std::span<const double> r, int k,
                                                const CouplingOptions& options);

}  // namespace gmpsvm

#endif  // GMPSVM_PROB_PAIRWISE_COUPLING_H_
