// Platt scaling (Section 2.1.2): fits the sigmoid
//   P(y=1 | x) = 1 / (1 + exp(A*v + B))
// to a binary SVM's decision values by maximizing the regularized log
// likelihood (Equation 13) with Newton's method plus backtracking line
// search, using the numerically-stable formulation of Lin, Lin & Weng (2007)
// — the same algorithm LibSVM implements in sigmoid_train().
//
// On the GMP-SVM side, the candidate step evaluations of the backtracking
// search are charged as parallel work (the paper evaluates multiple
// candidate values for A and B concurrently).
//
// The fit still calls libm's exp, log1p and log, so A and B can differ in
// their last digits between libm builds (docs/performance.md); Probability
// does not depend on libm.

#ifndef GMPSVM_PROB_PLATT_H_
#define GMPSVM_PROB_PLATT_H_

#include <cstdint>
#include <span>

#include "common/status.h"
#include "device/executor.h"
#include "simd/simd_math.h"

namespace gmpsvm {

struct SigmoidParams {
  double a = 0.0;
  double b = 0.0;

  // P(y=1 | decision value v) under this sigmoid: simd::PlattFromArg, the
  // stable split form on the deterministic exp, so it has the same bits on
  // every SIMD tier and libm (SimdOps::platt_panel matches it lane by lane).
  double Probability(double v) const { return simd::PlattFromArg(v * a + b); }
};

// Fits A and B from decision values and ±1 labels, with LibSVM's stopping
// rule: at most 100 Newton iterations, stopping once both gradient entries
// are below 1e-5. Work is charged to `stream`; pass the number of
// concurrently evaluated backtracking candidates in `parallel_candidates`
// (1 = GPU baseline, >1 = GMP-SVM).
Result<SigmoidParams> FitSigmoid(std::span<const double> decision_values,
                                 std::span<const int8_t> labels,
                                 SimExecutor* executor, StreamId stream,
                                 int parallel_candidates = 1);

}  // namespace gmpsvm

#endif  // GMPSVM_PROB_PLATT_H_
