#include "prob/platt.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace gmpsvm {
namespace {

// LibSVM's sigmoid_train constants: the Newton iteration cap, the gradient
// stopping tolerance, and Lin et al.'s backtracking floor and Hessian ridge.
constexpr int kMaxIterations = 100;
constexpr double kEps = 1e-5;
constexpr double kMinStep = 1e-10;
constexpr double kSigma = 1e-12;

// Stable negative log-likelihood of the sigmoid fit (Lin et al. 2007 form).
double Objective(std::span<const double> dec, std::span<const double> t, double a,
                 double b) {
  double fval = 0.0;
  for (size_t i = 0; i < dec.size(); ++i) {
    const double f_apb = dec[i] * a + b;
    if (f_apb >= 0) {
      fval += t[i] * f_apb + std::log1p(std::exp(-f_apb));
    } else {
      fval += (t[i] - 1.0) * f_apb + std::log1p(std::exp(f_apb));
    }
  }
  return fval;
}

TaskCost PassCost(int64_t n, double flops_per_item, int64_t concurrent_copies = 1) {
  TaskCost cost;
  cost.parallel_items = n * concurrent_copies;
  cost.flops = flops_per_item * static_cast<double>(n * concurrent_copies);
  cost.bytes_read = static_cast<double>(n * concurrent_copies) * sizeof(double);
  return cost;
}

}  // namespace

Result<SigmoidParams> FitSigmoid(std::span<const double> decision_values,
                                 std::span<const int8_t> labels,
                                 SimExecutor* executor, StreamId stream,
                                 int parallel_candidates) {
  const size_t n = decision_values.size();
  if (n == 0 || labels.size() != n) {
    return Status::InvalidArgument("empty or mismatched decision values / labels");
  }
  parallel_candidates = std::max(1, parallel_candidates);

  // Regularized targets of Equation (13).
  double prior1 = 0, prior0 = 0;
  for (int8_t y : labels) (y > 0 ? prior1 : prior0) += 1.0;
  const double hi_target = (prior1 + 1.0) / (prior1 + 2.0);
  const double lo_target = 1.0 / (prior0 + 2.0);
  std::vector<double> t(n);
  for (size_t i = 0; i < n; ++i) t[i] = labels[i] > 0 ? hi_target : lo_target;

  SigmoidParams params;
  params.a = 0.0;
  params.b = std::log((prior0 + 1.0) / (prior1 + 1.0));
  double fval = Objective(decision_values, t, params.a, params.b);
  executor->Charge(stream, PassCost(static_cast<int64_t>(n), 15.0));

  int iter = 0;
  for (; iter < kMaxIterations; ++iter) {
    // Gradient and Hessian of F(A, B): three parallel reductions over n.
    double h11 = kSigma, h22 = kSigma, h21 = 0.0;
    double g1 = 0.0, g2 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double f_apb = decision_values[i] * params.a + params.b;
      double p, q;
      if (f_apb >= 0) {
        const double e = std::exp(-f_apb);
        p = e / (1.0 + e);
        q = 1.0 / (1.0 + e);
      } else {
        const double e = std::exp(f_apb);
        p = 1.0 / (1.0 + e);
        q = e / (1.0 + e);
      }
      const double d2 = p * q;
      h11 += decision_values[i] * decision_values[i] * d2;
      h22 += d2;
      h21 += decision_values[i] * d2;
      const double d1 = t[i] - p;
      g1 += decision_values[i] * d1;
      g2 += d1;
    }
    executor->Charge(stream, PassCost(static_cast<int64_t>(n), 25.0));

    if (std::abs(g1) < kEps && std::abs(g2) < kEps) break;

    // Newton direction.
    const double det = h11 * h22 - h21 * h21;
    const double d_a = -(h22 * g1 - h21 * g2) / det;
    const double d_b = -(-h21 * g1 + h11 * g2) / det;
    const double gd = g1 * d_a + g2 * d_b;

    // Backtracking line search. GMP-SVM evaluates `parallel_candidates`
    // step sizes concurrently; the cost model charges evaluations in groups
    // of that width.
    double stepsize = 1.0;
    int evals_pending = 0;
    bool accepted = false;
    while (stepsize >= kMinStep) {
      const double new_a = params.a + stepsize * d_a;
      const double new_b = params.b + stepsize * d_b;
      const double new_f = Objective(decision_values, t, new_a, new_b);
      ++evals_pending;
      if (evals_pending == parallel_candidates) {
        executor->Charge(stream,
                         PassCost(static_cast<int64_t>(n), 15.0, evals_pending));
        evals_pending = 0;
      }
      if (new_f < fval + 1e-4 * stepsize * gd) {
        params.a = new_a;
        params.b = new_b;
        fval = new_f;
        accepted = true;
        break;
      }
      stepsize /= 2.0;
    }
    if (evals_pending > 0) {
      executor->Charge(stream,
                       PassCost(static_cast<int64_t>(n), 15.0, evals_pending));
    }
    if (!accepted) {
      GMP_LOG(Warning) << "sigmoid fit: line search failed at iteration " << iter;
      break;
    }
  }
  if (iter >= kMaxIterations) {
    GMP_LOG(Warning) << "sigmoid fit reached max iterations";
  }
  return params;
}

}  // namespace gmpsvm
