#include "solver/batch_smo_solver.h"

#include <gtest/gtest.h>

#include <limits>

#include "../test_util.h"
#include "device/executor.h"
#include "solver/smo_solver.h"

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

BatchSmoOptions SmallOptions(int ws = 32, int q = 16) {
  BatchSmoOptions opts;
  opts.working_set.ws_size = ws;
  opts.working_set.q = q;
  return opts;
}

TEST(BatchSmoSolverTest, SeparatesEasyBlobs) {
  BinaryBlobs blobs = MakeBinaryBlobs(40, 4, 3.0, 7);
  BinaryProblem p = MakeProblem(blobs, 10.0, Gaussian(0.25));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  BatchSmoSolver solver(SmallOptions());
  SolverStats stats;
  auto sol = ValueOrDie(solver.Solve(p, kc, {&exec, kDefaultStream}, &stats));
  for (int64_t i = 0; i < p.n(); ++i) {
    const double v =
        DecisionValue(p, kc, sol.alpha, sol.bias, static_cast<int32_t>(i));
    EXPECT_GT(v * p.y[static_cast<size_t>(i)], 0.0) << "instance " << i;
  }
  EXPECT_GT(stats.outer_rounds, 0);
  EXPECT_GT(stats.iterations, 0);
}

TEST(BatchSmoSolverTest, SatisfiesKktAtTolerance) {
  BinaryBlobs blobs = MakeBinaryBlobs(30, 3, 1.0, 11, /*noise=*/1.5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  BatchSmoOptions opts = SmallOptions();
  opts.eps = 1e-3;
  BatchSmoSolver solver(opts);
  auto sol = ValueOrDie(solver.Solve(p, kc, {&exec, kDefaultStream}, nullptr));
  EXPECT_LT(MaxKktViolation(p, kc, sol.alpha), opts.eps + 1e-9);
}

TEST(BatchSmoSolverTest, MatchesClassicSmoSolution) {
  // The paper's Table 4 claim: GMP-SVM produces the same classifier as
  // LibSVM. Dual objective, bias, and decision values agree to tolerance.
  BinaryBlobs blobs = MakeBinaryBlobs(50, 4, 1.2, 13, /*noise=*/1.3);
  BinaryProblem p = MakeProblem(blobs, 2.0, Gaussian(0.3));
  KernelComputer kc(p.data, p.kernel);

  SimExecutor exec1(ExecutorModel::TeslaP100());
  auto ref = ValueOrDie(
      SmoSolver(SmoOptions{}).Solve(p, kc, &exec1, kDefaultStream, nullptr));
  SimExecutor exec2(ExecutorModel::TeslaP100());
  auto batch = ValueOrDie(
      BatchSmoSolver(SmallOptions()).Solve(p, kc, {&exec2, kDefaultStream}, nullptr));

  EXPECT_NEAR(batch.objective, ref.objective,
              1e-2 * (1.0 + std::abs(ref.objective)));
  EXPECT_NEAR(batch.bias, ref.bias, 5e-2);
  int disagreements = 0;
  for (int64_t i = 0; i < p.n(); ++i) {
    const double v_ref =
        DecisionValue(p, kc, ref.alpha, ref.bias, static_cast<int32_t>(i));
    const double v_batch =
        DecisionValue(p, kc, batch.alpha, batch.bias, static_cast<int32_t>(i));
    if ((v_ref > 0) != (v_batch > 0)) ++disagreements;
  }
  EXPECT_EQ(disagreements, 0);
}

TEST(BatchSmoSolverTest, RespectsConstraints) {
  BinaryBlobs blobs = MakeBinaryBlobs(35, 3, 0.7, 3, /*noise=*/2.0);
  BinaryProblem p = MakeProblem(blobs, 1.5, Gaussian(0.4));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  auto sol = ValueOrDie(
      BatchSmoSolver(SmallOptions()).Solve(p, kc, {&exec, kDefaultStream}, nullptr));
  double sum_ya = 0.0;
  for (int64_t i = 0; i < p.n(); ++i) {
    EXPECT_GE(sol.alpha[static_cast<size_t>(i)], -1e-12);
    EXPECT_LE(sol.alpha[static_cast<size_t>(i)], p.C + 1e-12);
    sum_ya += sol.alpha[static_cast<size_t>(i)] * p.y[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(sum_ya, 0.0, 1e-8);
}

TEST(BatchSmoSolverTest, BuffersReduceKernelRowRecomputation) {
  BinaryBlobs blobs = MakeBinaryBlobs(60, 4, 1.0, 19, /*noise=*/1.5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  SolverStats stats;
  ValueOrDie(
      BatchSmoSolver(SmallOptions()).Solve(p, kc, {&exec, kDefaultStream}, &stats));
  // Keep-half refreshes mean roughly half of each round's rows are reused.
  EXPECT_GT(stats.kernel_rows_reused, 0);
  EXPECT_GT(exec.counters().kernel_values_reused, 0);
}

TEST(BatchSmoSolverTest, FarFewerKernelRowsThanClassicSmo) {
  // The headline efficiency claim of the binary-SVM level: batching +
  // buffering computes far fewer kernel rows than row-pair-per-iteration SMO
  // with a tiny cache.
  BinaryBlobs blobs = MakeBinaryBlobs(80, 5, 0.9, 31, /*noise=*/1.4);
  BinaryProblem p = MakeProblem(blobs, 2.0, Gaussian(0.3));
  KernelComputer kc(p.data, p.kernel);

  SmoOptions classic_opts;
  classic_opts.cache_bytes = 4 * p.n() * sizeof(double);  // 4 rows
  SimExecutor exec1(ExecutorModel::TeslaP100());
  SolverStats classic_stats;
  ValueOrDie(
      SmoSolver(classic_opts).Solve(p, kc, &exec1, kDefaultStream, &classic_stats));

  SimExecutor exec2(ExecutorModel::TeslaP100());
  SolverStats batch_stats;
  ValueOrDie(
      BatchSmoSolver(SmallOptions()).Solve(p, kc, {&exec2, kDefaultStream},
                                           &batch_stats));

  EXPECT_LT(batch_stats.kernel_rows_computed, classic_stats.kernel_rows_computed);
  // And fewer kernel launches (batching).
  EXPECT_LT(exec2.counters().launches, exec1.counters().launches);
}

TEST(BatchSmoSolverTest, DeterministicAcrossRuns) {
  BinaryBlobs blobs = MakeBinaryBlobs(30, 4, 1.0, 13);
  BinaryProblem p = MakeProblem(blobs, 5.0, Gaussian(0.25));
  KernelComputer kc(p.data, p.kernel);
  BatchSmoSolver solver(SmallOptions());
  SimExecutor e1(ExecutorModel::TeslaP100());
  auto s1 = ValueOrDie(solver.Solve(p, kc, {&e1, kDefaultStream}, nullptr));
  SimExecutor e2(ExecutorModel::TeslaP100());
  auto s2 = ValueOrDie(solver.Solve(p, kc, {&e2, kDefaultStream}, nullptr));
  EXPECT_EQ(s1.alpha, s2.alpha);
  EXPECT_DOUBLE_EQ(s1.bias, s2.bias);
  EXPECT_DOUBLE_EQ(e1.NowSeconds(), e2.NowSeconds());
}

TEST(BatchSmoSolverTest, DeviceBufferCountsAgainstBudget) {
  BinaryBlobs blobs = MakeBinaryBlobs(20, 3, 2.0, 23);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  BatchSmoOptions opts = SmallOptions(16, 8);
  ValueOrDie(BatchSmoSolver(opts).Solve(p, kc, {&exec, kDefaultStream}, nullptr));
  EXPECT_GE(exec.counters().peak_bytes_in_use,
            16u * static_cast<size_t>(p.n()) * sizeof(double));
  EXPECT_EQ(exec.bytes_in_use(), 0u);
}

TEST(BatchSmoSolverTest, FixedInnerPolicyAlsoConverges) {
  BinaryBlobs blobs = MakeBinaryBlobs(30, 3, 1.0, 37, /*noise=*/1.5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  BatchSmoOptions opts = SmallOptions();
  opts.inner_policy = BatchSmoOptions::InnerPolicy::kFixed;
  SimExecutor exec(ExecutorModel::TeslaP100());
  auto sol =
      ValueOrDie(BatchSmoSolver(opts).Solve(p, kc, {&exec, kDefaultStream}, nullptr));
  EXPECT_LT(MaxKktViolation(p, kc, sol.alpha), opts.eps + 1e-9);
}

// Sweep: the solver reaches KKT optimality for every (ws_size, q) combo,
// matching the classic solver's objective. This is the convergence-safety
// property behind the Figure 6/7 parameter sweeps.
class BatchSmoSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BatchSmoSweepTest, ConvergesToReferenceObjective) {
  auto [ws, q] = GetParam();
  BinaryBlobs blobs = MakeBinaryBlobs(40, 4, 1.1, 41, /*noise=*/1.3);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.4));
  KernelComputer kc(p.data, p.kernel);

  SimExecutor ref_exec(ExecutorModel::TeslaP100());
  auto ref = ValueOrDie(
      SmoSolver(SmoOptions{}).Solve(p, kc, &ref_exec, kDefaultStream, nullptr));

  BatchSmoOptions opts = SmallOptions(ws, q);
  SimExecutor exec(ExecutorModel::TeslaP100());
  auto sol =
      ValueOrDie(BatchSmoSolver(opts).Solve(p, kc, {&exec, kDefaultStream}, nullptr));
  EXPECT_LT(MaxKktViolation(p, kc, sol.alpha), 2e-3);
  EXPECT_NEAR(sol.objective, ref.objective, 1e-2 * (1.0 + std::abs(ref.objective)));
}

INSTANTIATE_TEST_SUITE_P(WsAndQ, BatchSmoSweepTest,
                         ::testing::Combine(::testing::Values(8, 16, 32, 64),
                                            ::testing::Values(4, 8, 16, 32)));

TEST(BatchSmoSolverTest, AlphaSeedingCutsIterationsOnCPath) {
  // Warm-starting from the previous C's solution (alpha seeding) should
  // converge in far fewer iterations than a cold start, with an equal
  // objective.
  BinaryBlobs blobs = MakeBinaryBlobs(50, 4, 1.0, 171, /*noise=*/1.4);
  KernelParams kernel = Gaussian(0.3);
  KernelComputer kc(&blobs.data, kernel);
  BatchSmoSolver solver(SmallOptions());

  BinaryProblem p1 = MakeProblem(blobs, 1.0, kernel);
  SimExecutor e0(ExecutorModel::TeslaP100());
  auto base = ValueOrDie(solver.Solve(p1, kc, {&e0, kDefaultStream}, nullptr));

  BinaryProblem p2 = MakeProblem(blobs, 1.3, kernel);  // nearby C
  SimExecutor e_cold(ExecutorModel::TeslaP100());
  SolverStats cold;
  auto cold_sol = ValueOrDie(solver.Solve(p2, kc, {&e_cold, kDefaultStream}, &cold));
  SimExecutor e_warm(ExecutorModel::TeslaP100());
  SolverStats warm;
  auto warm_sol = ValueOrDie(
      solver.Solve(p2, kc, {&e_warm, kDefaultStream}, &warm, base.alpha));

  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_NEAR(warm_sol.objective, cold_sol.objective,
              1e-2 * (1.0 + std::abs(cold_sol.objective)));
  EXPECT_LT(::gmpsvm::testing::MaxKktViolation(p2, kc, warm_sol.alpha), 2e-3);
}

TEST(BatchSmoSolverTest, AlphaSeedingRepairsBrokenConstraints) {
  // A seed violating the box and equality constraints is clamped/repaired;
  // the solve still reaches a valid optimum.
  BinaryBlobs blobs = MakeBinaryBlobs(30, 4, 1.5, 173);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.3));
  KernelComputer kc(p.data, p.kernel);
  std::vector<double> bad_seed(static_cast<size_t>(p.n()), 5.0);  // way out of box
  SimExecutor exec(ExecutorModel::TeslaP100());
  auto sol = ValueOrDie(BatchSmoSolver(SmallOptions())
                            .Solve(p, kc, {&exec, kDefaultStream}, nullptr,
                                   bad_seed));
  double sum_ya = 0.0;
  for (int64_t i = 0; i < p.n(); ++i) {
    EXPECT_GE(sol.alpha[static_cast<size_t>(i)], -1e-12);
    EXPECT_LE(sol.alpha[static_cast<size_t>(i)], p.C + 1e-12);
    sum_ya += sol.alpha[static_cast<size_t>(i)] * p.y[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(sum_ya, 0.0, 1e-8);
  EXPECT_LT(::gmpsvm::testing::MaxKktViolation(p, kc, sol.alpha), 2e-3);
}

TEST(BatchSmoSolverTest, AlphaSeedingRejectsWrongSize) {
  BinaryBlobs blobs = MakeBinaryBlobs(10, 3, 2.0, 177);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.3));
  KernelComputer kc(p.data, p.kernel);
  std::vector<double> seed(3, 0.0);
  SimExecutor exec(ExecutorModel::TeslaP100());
  EXPECT_FALSE(BatchSmoSolver(SmallOptions())
                   .Solve(p, kc, {&exec, kDefaultStream}, nullptr, seed)
                   .ok());
}

TEST(BatchSmoSolverTest, RejectsNonPositiveOrNanC) {
  BinaryBlobs blobs = MakeBinaryBlobs(10, 3, 2.0, 5);
  for (const double c :
       {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
    BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.3));
    p.C = c;
    KernelComputer kc(p.data, p.kernel);
    SimExecutor exec(ExecutorModel::TeslaP100());
    const auto result = BatchSmoSolver(SmallOptions())
                            .Solve(p, kc, {&exec, kDefaultStream}, nullptr);
    ASSERT_FALSE(result.ok()) << c;
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << c << ": " << result.status().ToString();
  }
}

TEST(BatchSmoOptionsValidateTest, NamesTheOffendingField) {
  BatchSmoOptions options = SmallOptions();
  EXPECT_TRUE(options.Validate().ok());

  BatchSmoOptions bad_q = options;
  bad_q.working_set.q = 0;
  Status s = bad_q.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("working_set.q"), std::string::npos);

  // q above ws_size is legal: WorkingSetSelector clamps it (the documented
  // behavior the ws/q sweep configurations rely on).
  BatchSmoOptions big_q = options;
  big_q.working_set.q = big_q.working_set.ws_size + 1;
  EXPECT_TRUE(big_q.Validate().ok());

  BatchSmoOptions bad_eps = options;
  bad_eps.eps = 0.0;
  s = bad_eps.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("eps"), std::string::npos);

  // The solver itself rejects invalid options before doing any work.
  BinaryBlobs blobs = MakeBinaryBlobs(10, 3, 2.0, 178);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.3));
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  auto sol = BatchSmoSolver(bad_eps).Solve(p, kc, {&exec, kDefaultStream},
                                           nullptr);
  ASSERT_FALSE(sol.ok());
  EXPECT_TRUE(sol.status().IsInvalidArgument());
}

}  // namespace
}  // namespace gmpsvm
