// Property-based tests on solver invariants that hold for ANY correct SVM
// solver, checked across solvers, kernels, C values and data difficulty:
//   * weak duality: primal objective >= dual objective at the solution;
//   * complementary slackness structure of the alpha values;
//   * support-vector geometry: free SVs sit near the margin;
//   * monotonicity: the dual objective never decreases with C.

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "device/executor.h"
#include "solver/batch_smo_solver.h"
#include "solver/smo_solver.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::BinaryBlobs;
using ::gmpsvm::testing::DecisionValue;
using ::gmpsvm::testing::MakeBinaryBlobs;
using ::gmpsvm::testing::MakeProblem;

KernelParams Gaussian(double gamma) {
  KernelParams p;
  p.gamma = gamma;
  return p;
}

// ||w||^2 in feature space = sum_ij alpha_i alpha_j y_i y_j K_ij.
double SquaredNormW(const BinaryProblem& p, const KernelComputer& kc,
                    const std::vector<double>& alpha) {
  double norm = 0.0;
  for (int64_t i = 0; i < p.n(); ++i) {
    if (alpha[static_cast<size_t>(i)] == 0.0) continue;
    for (int64_t j = 0; j < p.n(); ++j) {
      if (alpha[static_cast<size_t>(j)] == 0.0) continue;
      norm += alpha[static_cast<size_t>(i)] * alpha[static_cast<size_t>(j)] *
              p.y[static_cast<size_t>(i)] * p.y[static_cast<size_t>(j)] *
              kc.Compute(p.rows[static_cast<size_t>(i)],
                         p.rows[static_cast<size_t>(j)]);
    }
  }
  return norm;
}

// Primal objective 0.5||w||^2 + C * sum max(0, 1 - y_i v_i).
double PrimalObjective(const BinaryProblem& p, const KernelComputer& kc,
                       const BinarySolution& sol) {
  double primal = 0.5 * SquaredNormW(p, kc, sol.alpha);
  for (int64_t i = 0; i < p.n(); ++i) {
    const double v =
        DecisionValue(p, kc, sol.alpha, sol.bias, static_cast<int32_t>(i));
    const double slack =
        std::max(0.0, 1.0 - p.y[static_cast<size_t>(i)] * v);
    primal += p.CFor(p.y[static_cast<size_t>(i)]) * slack;
  }
  return primal;
}

struct Case {
  double c;
  double gamma;
  double separation;
  bool batch_solver;
};

class SolverPropertyTest : public ::testing::TestWithParam<Case> {
 protected:
  BinarySolution Solve(const BinaryProblem& p, const KernelComputer& kc) {
    SimExecutor exec(ExecutorModel::TeslaP100());
    if (GetParam().batch_solver) {
      BatchSmoOptions options;
      options.working_set.ws_size = 24;
      options.working_set.q = 12;
      return ValueOrDie(
          BatchSmoSolver(options).Solve(p, kc, {&exec, kDefaultStream}, nullptr));
    }
    return ValueOrDie(
        SmoSolver(SmoOptions{}).Solve(p, kc, &exec, kDefaultStream, nullptr));
  }
};

TEST_P(SolverPropertyTest, WeakDualityHolds) {
  const Case& param = GetParam();
  BinaryBlobs blobs = MakeBinaryBlobs(30, 4, param.separation, 97, 1.3);
  BinaryProblem p = MakeProblem(blobs, param.c, Gaussian(param.gamma));
  KernelComputer kc(p.data, p.kernel);
  BinarySolution sol = Solve(p, kc);
  const double primal = PrimalObjective(p, kc, sol);
  // primal >= dual always; near-equality at the optimum (eps-tolerance gap).
  EXPECT_GE(primal, sol.objective - 1e-6 * (1.0 + std::abs(sol.objective)));
  EXPECT_LT(primal - sol.objective,
            0.05 * (1.0 + std::abs(sol.objective)) + 0.5);
}

TEST_P(SolverPropertyTest, FreeSupportVectorsSitOnMargin) {
  const Case& param = GetParam();
  BinaryBlobs blobs = MakeBinaryBlobs(30, 4, param.separation, 101, 1.3);
  BinaryProblem p = MakeProblem(blobs, param.c, Gaussian(param.gamma));
  KernelComputer kc(p.data, p.kernel);
  BinarySolution sol = Solve(p, kc);
  for (int64_t i = 0; i < p.n(); ++i) {
    const double a = sol.alpha[static_cast<size_t>(i)];
    const double c_i = p.CFor(p.y[static_cast<size_t>(i)]);
    if (a <= 1e-9 || a >= c_i - 1e-9) continue;  // not free
    const double margin =
        p.y[static_cast<size_t>(i)] *
        DecisionValue(p, kc, sol.alpha, sol.bias, static_cast<int32_t>(i));
    EXPECT_NEAR(margin, 1.0, 5e-3) << "free SV " << i;
  }
}

TEST_P(SolverPropertyTest, NonSupportVectorsAreCorrectlyClassified) {
  const Case& param = GetParam();
  BinaryBlobs blobs = MakeBinaryBlobs(30, 4, param.separation, 103, 1.3);
  BinaryProblem p = MakeProblem(blobs, param.c, Gaussian(param.gamma));
  KernelComputer kc(p.data, p.kernel);
  BinarySolution sol = Solve(p, kc);
  for (int64_t i = 0; i < p.n(); ++i) {
    if (sol.alpha[static_cast<size_t>(i)] > 1e-9) continue;  // SV
    const double margin =
        p.y[static_cast<size_t>(i)] *
        DecisionValue(p, kc, sol.alpha, sol.bias, static_cast<int32_t>(i));
    // alpha = 0 at optimality requires margin >= 1 (up to tolerance).
    EXPECT_GT(margin, 1.0 - 5e-3) << "non-SV " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolverPropertyTest,
    ::testing::Values(Case{0.5, 0.3, 1.5, false}, Case{0.5, 0.3, 1.5, true},
                      Case{10.0, 0.5, 0.8, false}, Case{10.0, 0.5, 0.8, true},
                      Case{1.0, 0.1, 2.5, false}, Case{1.0, 0.1, 2.5, true},
                      Case{100.0, 0.3, 1.0, false}, Case{100.0, 0.3, 1.0, true}),
    [](const auto& info) {
      const Case& c = info.param;
      return std::string(c.batch_solver ? "batch" : "classic") + "_c" +
             std::to_string(static_cast<int>(c.c * 10)) + "_g" +
             std::to_string(static_cast<int>(c.gamma * 10)) + "_s" +
             std::to_string(static_cast<int>(c.separation * 10));
    });

TEST(SolverMonotonicityTest, DualObjectiveNondecreasingInC) {
  BinaryBlobs blobs = MakeBinaryBlobs(30, 4, 0.8, 107, 1.6);
  KernelComputer kc(&blobs.data, Gaussian(0.4));
  double prev_obj = -1.0;
  for (double c : {0.1, 0.5, 2.0, 10.0, 50.0}) {
    BinaryProblem p = MakeProblem(blobs, c, Gaussian(0.4));
    SimExecutor exec(ExecutorModel::TeslaP100());
    auto sol = ValueOrDie(
        SmoSolver(SmoOptions{}).Solve(p, kc, &exec, kDefaultStream, nullptr));
    // Relaxing the box constraint can only improve the dual optimum.
    EXPECT_GE(sol.objective, prev_obj - 1e-6);
    prev_obj = sol.objective;
  }
}

TEST(SolverAgreementTest, BatchAndClassicAgreeAcrossSeeds) {
  for (uint64_t seed : {1u, 7u, 23u, 91u, 211u}) {
    BinaryBlobs blobs = MakeBinaryBlobs(25, 4, 1.2, seed, 1.4);
    BinaryProblem p = MakeProblem(blobs, 2.0, Gaussian(0.35));
    KernelComputer kc(p.data, p.kernel);
    SimExecutor e1(ExecutorModel::TeslaP100()), e2(ExecutorModel::TeslaP100());
    auto a = ValueOrDie(
        SmoSolver(SmoOptions{}).Solve(p, kc, &e1, kDefaultStream, nullptr));
    BatchSmoOptions options;
    options.working_set.ws_size = 16;
    options.working_set.q = 8;
    auto b = ValueOrDie(
        BatchSmoSolver(options).Solve(p, kc, {&e2, kDefaultStream}, nullptr));
    EXPECT_NEAR(a.objective, b.objective, 1e-2 * (1.0 + std::abs(a.objective)))
        << "seed " << seed;
    EXPECT_NEAR(a.bias, b.bias, 5e-2) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gmpsvm
