#include "solver/smo_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "../test_util.h"
#include "device/executor.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::BinaryBlobs;
using ::gmpsvm::testing::DecisionValue;
using ::gmpsvm::testing::DualObjective;
using ::gmpsvm::testing::MakeBinaryBlobs;
using ::gmpsvm::testing::MakeProblem;
using ::gmpsvm::testing::MaxKktViolation;

KernelParams Gaussian(double gamma) {
  KernelParams p;
  p.type = KernelType::kGaussian;
  p.gamma = gamma;
  return p;
}

TEST(SmoSolverTest, RejectsDegenerateProblems) {
  BinaryBlobs blobs = MakeBinaryBlobs(1, 2, 3.0, 1);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  SmoSolver solver(SmoOptions{});

  BinaryProblem small = p;
  small.rows = {0};
  small.y = {1};
  EXPECT_FALSE(solver.Solve(small, kc, &exec, kDefaultStream, nullptr).ok());

  BinaryProblem bad_c = p;
  bad_c.C = 0.0;
  EXPECT_FALSE(solver.Solve(bad_c, kc, &exec, kDefaultStream, nullptr).ok());
}

TEST(SmoSolverTest, RejectsNanC) {
  // NaN compares false with everything, so a "C <= 0" check lets it through.
  BinaryBlobs blobs = MakeBinaryBlobs(10, 3, 2.0, 5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  p.C = std::numeric_limits<double>::quiet_NaN();
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  const auto result =
      SmoSolver(SmoOptions{}).Solve(p, kc, &exec, kDefaultStream, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
}

TEST(SmoSolverTest, SeparatesEasyBlobs) {
  BinaryBlobs blobs = MakeBinaryBlobs(40, 4, 3.0, 7);
  BinaryProblem p = MakeProblem(blobs, 10.0, Gaussian(0.25));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  SmoSolver solver(SmoOptions{});
  SolverStats stats;
  auto solution = ValueOrDie(solver.Solve(p, kc, &exec, kDefaultStream, &stats));

  // All training instances correctly classified on separable data.
  for (int64_t i = 0; i < p.n(); ++i) {
    const double v =
        DecisionValue(p, kc, solution.alpha, solution.bias, static_cast<int32_t>(i));
    EXPECT_GT(v * p.y[static_cast<size_t>(i)], 0.0) << "instance " << i;
  }
  EXPECT_GT(stats.iterations, 0);
}

TEST(SmoSolverTest, SatisfiesKktAtTolerance) {
  BinaryBlobs blobs = MakeBinaryBlobs(30, 3, 1.0, 11, /*noise=*/1.5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  SmoOptions opts;
  opts.eps = 1e-3;
  SmoSolver solver(opts);
  auto solution = ValueOrDie(solver.Solve(p, kc, &exec, kDefaultStream, nullptr));
  EXPECT_LT(MaxKktViolation(p, kc, solution.alpha), opts.eps + 1e-9);
}

TEST(SmoSolverTest, RespectsBoxAndEqualityConstraints) {
  BinaryBlobs blobs = MakeBinaryBlobs(25, 3, 0.5, 3, /*noise=*/2.0);  // hard data
  BinaryProblem p = MakeProblem(blobs, 2.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  SmoSolver solver(SmoOptions{});
  auto solution = ValueOrDie(solver.Solve(p, kc, &exec, kDefaultStream, nullptr));

  double sum_ya = 0.0;
  for (int64_t i = 0; i < p.n(); ++i) {
    const double a = solution.alpha[static_cast<size_t>(i)];
    EXPECT_GE(a, -1e-12);
    EXPECT_LE(a, p.C + 1e-12);
    sum_ya += a * p.y[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(sum_ya, 0.0, 1e-9);
}

TEST(SmoSolverTest, ObjectiveMatchesBruteForce) {
  BinaryBlobs blobs = MakeBinaryBlobs(20, 3, 1.5, 5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.3));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  SmoSolver solver(SmoOptions{});
  auto solution = ValueOrDie(solver.Solve(p, kc, &exec, kDefaultStream, nullptr));
  EXPECT_NEAR(solution.objective, DualObjective(p, kc, solution.alpha),
              1e-6 * (1.0 + std::abs(solution.objective)));
}

TEST(SmoSolverTest, DeterministicAcrossRuns) {
  BinaryBlobs blobs = MakeBinaryBlobs(30, 4, 1.0, 13);
  BinaryProblem p = MakeProblem(blobs, 5.0, Gaussian(0.25));
  KernelComputer kc(p.data, p.kernel);
  SmoSolver solver(SmoOptions{});

  SimExecutor exec1(ExecutorModel::TeslaP100());
  auto s1 = ValueOrDie(solver.Solve(p, kc, &exec1, kDefaultStream, nullptr));
  SimExecutor exec2(ExecutorModel::TeslaP100());
  auto s2 = ValueOrDie(solver.Solve(p, kc, &exec2, kDefaultStream, nullptr));

  EXPECT_EQ(s1.alpha, s2.alpha);
  EXPECT_DOUBLE_EQ(s1.bias, s2.bias);
  EXPECT_DOUBLE_EQ(exec1.NowSeconds(), exec2.NowSeconds());
}

TEST(SmoSolverTest, HigherCFitsHarder) {
  BinaryBlobs blobs = MakeBinaryBlobs(40, 3, 0.8, 17, /*noise=*/1.5);
  KernelComputer kc(&blobs.data, Gaussian(0.5));
  SimExecutor exec(ExecutorModel::TeslaP100());
  SmoSolver solver(SmoOptions{});

  auto count_errors = [&](double c) {
    BinaryProblem p = MakeProblem(blobs, c, Gaussian(0.5));
    auto sol = ValueOrDie(solver.Solve(p, kc, &exec, kDefaultStream, nullptr));
    int errors = 0;
    for (int64_t i = 0; i < p.n(); ++i) {
      const double v =
          DecisionValue(p, kc, sol.alpha, sol.bias, static_cast<int32_t>(i));
      if (v * p.y[static_cast<size_t>(i)] <= 0) ++errors;
    }
    return errors;
  };
  EXPECT_LE(count_errors(100.0), count_errors(0.01));
}

TEST(SmoSolverTest, CacheReducesKernelRowComputation) {
  BinaryBlobs blobs = MakeBinaryBlobs(50, 4, 1.0, 19, /*noise=*/1.5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);

  SmoOptions big_cache;
  big_cache.cache_bytes = 64ull << 20;
  SmoOptions tiny_cache;
  tiny_cache.cache_bytes = 2 * p.n() * sizeof(double);  // 2 rows

  SimExecutor exec_big(ExecutorModel::TeslaP100());
  SolverStats stats_big;
  ValueOrDie(SmoSolver(big_cache).Solve(p, kc, &exec_big, kDefaultStream, &stats_big));
  SimExecutor exec_tiny(ExecutorModel::TeslaP100());
  SolverStats stats_tiny;
  ValueOrDie(
      SmoSolver(tiny_cache).Solve(p, kc, &exec_tiny, kDefaultStream, &stats_tiny));

  EXPECT_LT(stats_big.kernel_rows_computed, stats_tiny.kernel_rows_computed);
  EXPECT_GT(stats_big.kernel_rows_reused, 0);
  // Same classifier regardless of cache size.
  EXPECT_EQ(stats_big.iterations, stats_tiny.iterations);
}

TEST(SmoSolverTest, OneRowCacheBudgetMatchesLargeCache) {
  // A step reads the rows of u and l together, so the cache keeps at least
  // two rows whatever its budget: with a one-row budget the second fetch
  // would evict the first and both would read K(l, .).
  BinaryBlobs blobs = MakeBinaryBlobs(50, 4, 1.0, 19, /*noise=*/1.5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);

  SmoOptions large_cache;
  large_cache.cache_bytes = 64ull << 20;
  SmoOptions one_row;
  one_row.cache_bytes = static_cast<size_t>(p.n()) * sizeof(double);

  SimExecutor exec_large(ExecutorModel::TeslaP100());
  SolverStats stats_large;
  const BinarySolution want = ValueOrDie(SmoSolver(large_cache).Solve(
      p, kc, &exec_large, kDefaultStream, &stats_large));
  SimExecutor exec_one(ExecutorModel::TeslaP100());
  SolverStats stats_one;
  const BinarySolution got = ValueOrDie(
      SmoSolver(one_row).Solve(p, kc, &exec_one, kDefaultStream, &stats_one));

  EXPECT_EQ(stats_one.iterations, stats_large.iterations);
  ASSERT_EQ(got.alpha.size(), want.alpha.size());
  EXPECT_EQ(0, std::memcmp(got.alpha.data(), want.alpha.data(),
                           want.alpha.size() * sizeof(double)));
  ASSERT_EQ(got.f.size(), want.f.size());
  EXPECT_EQ(0, std::memcmp(got.f.data(), want.f.data(),
                           want.f.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(&got.bias, &want.bias, sizeof(double)));
  EXPECT_EQ(0, std::memcmp(&got.objective, &want.objective, sizeof(double)));
}

TEST(SmoSolverTest, RejectsInvalidOptionsByName) {
  // A non-positive or NaN eps never satisfies the stop test, and zero
  // iterations would return the all-zero alpha as a solution.
  BinaryBlobs blobs = MakeBinaryBlobs(20, 3, 2.0, 5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  const auto expect_rejected = [&](const SmoOptions& options,
                                   const std::string& field) {
    const auto result = SmoSolver(options).Solve(p, kc, &exec, kDefaultStream,
                                                 nullptr);
    ASSERT_FALSE(result.ok()) << field;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << field;
    EXPECT_NE(result.status().message().find(field), std::string::npos)
        << result.status().message();
  };
  SmoOptions negative_eps;
  negative_eps.eps = -1.0;
  expect_rejected(negative_eps, "smo.eps");
  SmoOptions nan_eps;
  nan_eps.eps = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(nan_eps, "smo.eps");
  SmoOptions no_iterations;
  no_iterations.max_iterations = 0;
  expect_rejected(no_iterations, "smo.max_iterations");
}

TEST(SmoSolverTest, GpuBaselineCacheComesFromDeviceBudget) {
  BinaryBlobs blobs = MakeBinaryBlobs(20, 3, 2.0, 23);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  SmoOptions opts;
  opts.cache_bytes = 4ull << 30;
  opts.cache_on_device = true;
  SimExecutor exec(ExecutorModel::TeslaP100());
  ValueOrDie(SmoSolver(opts).Solve(p, kc, &exec, kDefaultStream, nullptr));
  EXPECT_GE(exec.counters().peak_bytes_in_use, 4ull << 30);
  EXPECT_EQ(exec.bytes_in_use(), 0u);  // released after solve
}

// Sweep over C: constraints hold everywhere.
class SmoSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SmoSweepTest, ConstraintsHold) {
  const double c = GetParam();
  BinaryBlobs blobs = MakeBinaryBlobs(20, 3, 1.0, 29);
  KernelParams kp;
  kp.gamma = 0.5;
  BinaryProblem p = MakeProblem(blobs, c, kp);
  KernelComputer kc(p.data, kp);
  SimExecutor exec(ExecutorModel::TeslaP100());
  SmoOptions opts;
  opts.max_iterations = 200000;
  auto sol = ValueOrDie(SmoSolver(opts).Solve(p, kc, &exec, kDefaultStream, nullptr));
  double sum_ya = 0.0;
  for (int64_t i = 0; i < p.n(); ++i) {
    EXPECT_GE(sol.alpha[static_cast<size_t>(i)], -1e-12);
    EXPECT_LE(sol.alpha[static_cast<size_t>(i)], c + 1e-12);
    sum_ya += sol.alpha[static_cast<size_t>(i)] * p.y[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(sum_ya, 0.0, 1e-8 * (1.0 + c));
}

INSTANTIATE_TEST_SUITE_P(Cs, SmoSweepTest, ::testing::Values(0.1, 1.0, 10.0));

TEST(SmoSolverTest, SecondOrderSelectionNeedsFewerIterations) {
  // Fan et al. 2005 (and the paper's Equation (5)): the second-order
  // heuristic converges in fewer SMO iterations than the maximal-violating-
  // pair rule, at the same final objective.
  BinaryBlobs blobs = MakeBinaryBlobs(60, 5, 0.9, 131, /*noise=*/1.4);
  BinaryProblem p = MakeProblem(blobs, 5.0, Gaussian(0.3));
  KernelComputer kc(p.data, p.kernel);

  SmoOptions second;
  SmoOptions first;
  first.selection = SmoOptions::Selection::kFirstOrder;

  SimExecutor e1(ExecutorModel::TeslaP100()), e2(ExecutorModel::TeslaP100());
  SolverStats s2nd, s1st;
  auto sol2 = ValueOrDie(SmoSolver(second).Solve(p, kc, &e1, kDefaultStream, &s2nd));
  auto sol1 = ValueOrDie(SmoSolver(first).Solve(p, kc, &e2, kDefaultStream, &s1st));

  EXPECT_LT(s2nd.iterations, s1st.iterations);
  EXPECT_NEAR(sol2.objective, sol1.objective,
              1e-2 * (1.0 + std::abs(sol2.objective)));
}

}  // namespace
}  // namespace gmpsvm

