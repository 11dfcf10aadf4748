#include "prob/platt.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "device/executor.h"

namespace gmpsvm {
namespace {

SimExecutor MakeExecutor() { return SimExecutor(ExecutorModel::TeslaP100()); }

// Draws labels from a known sigmoid P(y=1|v) = 1/(1+exp(a*v+b)).
void SampleFromSigmoid(double a, double b, int n, uint64_t seed,
                       std::vector<double>* dec, std::vector<int8_t>* labels) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double v = rng.Uniform(-4.0, 4.0);
    const double p = 1.0 / (1.0 + std::exp(a * v + b));
    dec->push_back(v);
    labels->push_back(rng.Bernoulli(p) ? 1 : -1);
  }
}

TEST(SigmoidParamsTest, ProbabilityStableBothBranches) {
  SigmoidParams s{-2.0, 0.0};
  EXPECT_NEAR(s.Probability(0.0), 0.5, 1e-12);
  EXPECT_GT(s.Probability(10.0), 0.99);
  EXPECT_LT(s.Probability(-10.0), 0.01);
  // Extreme inputs stay finite and in (0,1).
  EXPECT_GT(s.Probability(1000.0), 0.0);
  EXPECT_LE(s.Probability(1000.0), 1.0);
  EXPECT_GE(s.Probability(-1000.0), 0.0);
  EXPECT_LT(s.Probability(-1000.0), 1.0);
}

TEST(FitSigmoidTest, RejectsBadInput) {
  SimExecutor exec = MakeExecutor();
  std::vector<double> dec = {1.0};
  std::vector<int8_t> labels = {1, -1};
  EXPECT_FALSE(FitSigmoid(dec, labels, &exec, kDefaultStream).ok());
  EXPECT_FALSE(FitSigmoid(std::vector<double>{}, std::vector<int8_t>{}, &exec,
                          kDefaultStream)
                   .ok());
}

TEST(FitSigmoidTest, RecoversKnownParameters) {
  std::vector<double> dec;
  std::vector<int8_t> labels;
  SampleFromSigmoid(-2.0, 0.3, 20000, 42, &dec, &labels);
  SimExecutor exec = MakeExecutor();
  auto params =
      ValueOrDie(FitSigmoid(dec, labels, &exec, kDefaultStream));
  EXPECT_NEAR(params.a, -2.0, 0.15);
  EXPECT_NEAR(params.b, 0.3, 0.15);
}

TEST(FitSigmoidTest, ProbabilityMonotoneInDecisionValue) {
  std::vector<double> dec;
  std::vector<int8_t> labels;
  SampleFromSigmoid(-1.5, 0.0, 5000, 7, &dec, &labels);
  SimExecutor exec = MakeExecutor();
  auto params =
      ValueOrDie(FitSigmoid(dec, labels, &exec, kDefaultStream));
  // Larger decision value => larger probability of the positive class
  // (requires the fitted A to be negative, which it is for sane data).
  double prev = params.Probability(-5.0);
  for (double v = -4.5; v <= 5.0; v += 0.5) {
    const double p = params.Probability(v);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(FitSigmoidTest, SeparableDataGivesSteepSigmoid) {
  // Perfectly separated decision values: the fit drives A strongly negative.
  std::vector<double> dec;
  std::vector<int8_t> labels;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const bool pos = i % 2 == 0;
    dec.push_back(pos ? rng.Uniform(1.0, 2.0) : rng.Uniform(-2.0, -1.0));
    labels.push_back(pos ? 1 : -1);
  }
  SimExecutor exec = MakeExecutor();
  auto params =
      ValueOrDie(FitSigmoid(dec, labels, &exec, kDefaultStream));
  EXPECT_LT(params.a, -1.0);
  EXPECT_GT(params.Probability(1.5), 0.9);
  EXPECT_LT(params.Probability(-1.5), 0.1);
}

TEST(FitSigmoidTest, ImbalancedPriorsShiftB) {
  // 90% negative data with uninformative decision values: P(y=1) ~ 0.1
  // regardless of v.
  std::vector<double> dec;
  std::vector<int8_t> labels;
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    dec.push_back(rng.Uniform(-1.0, 1.0));
    labels.push_back(i % 10 == 0 ? 1 : -1);
  }
  SimExecutor exec = MakeExecutor();
  auto params =
      ValueOrDie(FitSigmoid(dec, labels, &exec, kDefaultStream));
  EXPECT_NEAR(params.Probability(0.0), 0.1, 0.03);
}

TEST(FitSigmoidTest, DeterministicAndChargesWork) {
  std::vector<double> dec;
  std::vector<int8_t> labels;
  SampleFromSigmoid(-1.0, 0.0, 1000, 11, &dec, &labels);
  SimExecutor e1 = MakeExecutor(), e2 = MakeExecutor();
  auto p1 = ValueOrDie(FitSigmoid(dec, labels, &e1, kDefaultStream));
  auto p2 = ValueOrDie(FitSigmoid(dec, labels, &e2, kDefaultStream));
  EXPECT_DOUBLE_EQ(p1.a, p2.a);
  EXPECT_DOUBLE_EQ(p1.b, p2.b);
  EXPECT_GT(e1.NowSeconds(), 0.0);
  EXPECT_GT(e1.counters().launches, 0);
}

TEST(FitSigmoidTest, ParallelCandidatesSameFitLessSimTime) {
  std::vector<double> dec;
  std::vector<int8_t> labels;
  SampleFromSigmoid(-2.5, 1.0, 4000, 13, &dec, &labels);
  SimExecutor serial = MakeExecutor(), parallel = MakeExecutor();
  auto ps = ValueOrDie(
      FitSigmoid(dec, labels, &serial, kDefaultStream, 1));
  auto pp = ValueOrDie(
      FitSigmoid(dec, labels, &parallel, kDefaultStream, 8));
  EXPECT_DOUBLE_EQ(ps.a, pp.a);  // identical result
  EXPECT_DOUBLE_EQ(ps.b, pp.b);
  EXPECT_LE(parallel.NowSeconds(), serial.NowSeconds() + 1e-12);
}

// Parameter-recovery sweep: the fit recovers (A, B) across a grid of true
// sigmoids, and the recovered negative log likelihood never exceeds the
// truth's by more than sampling noise.
class SigmoidRecoveryTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SigmoidRecoveryTest, RecoversParameters) {
  auto [a, b] = GetParam();
  std::vector<double> dec;
  std::vector<int8_t> labels;
  SampleFromSigmoid(a, b, 30000, 1234, &dec, &labels);
  SimExecutor exec = MakeExecutor();
  auto params =
      ValueOrDie(FitSigmoid(dec, labels, &exec, kDefaultStream));
  EXPECT_NEAR(params.a, a, 0.25 * (1.0 + std::abs(a)));
  EXPECT_NEAR(params.b, b, 0.25 * (1.0 + std::abs(b)));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SigmoidRecoveryTest,
    ::testing::Combine(::testing::Values(-0.5, -1.0, -2.0, -4.0),
                       ::testing::Values(-1.0, 0.0, 1.5)));

}  // namespace
}  // namespace gmpsvm
