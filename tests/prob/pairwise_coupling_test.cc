#include "prob/pairwise_coupling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace gmpsvm {
namespace {

// Builds the r matrix from a ground-truth probability vector:
// r_st = p_s / (p_s + p_t) — the consistent case where problem (14) has a
// zero-residual solution equal to p.
std::vector<double> ConsistentR(const std::vector<double>& p) {
  const int k = static_cast<int>(p.size());
  std::vector<double> r(static_cast<size_t>(k) * k, 0.0);
  for (int s = 0; s < k; ++s) {
    for (int t = 0; t < k; ++t) {
      if (s == t) continue;
      r[static_cast<size_t>(s) * k + t] = p[s] / (p[s] + p[t]);
    }
  }
  return r;
}

TEST(CouplingTest, RejectsBadInput) {
  CouplingOptions opts;
  EXPECT_FALSE(CoupleProbabilities(std::vector<double>{1.0}, 1, opts).ok());
  EXPECT_FALSE(CoupleProbabilities(std::vector<double>{1, 2, 3}, 2, opts).ok());
  EXPECT_FALSE(CoupleProbabilities(std::vector<double>(9, 0.5), 2, opts).ok());
  // A panel needs k >= 2, 4 or 8 rows at a lane stride of at least that,
  // and k(k-1)/2 pair probabilities per lane.
  std::vector<double> scratch;
  std::vector<double> out(4 * simd::kWidePanelRows);
  struct BadPanel {
    std::vector<double> pairs;
    int64_t stride;
    int rows;
    int k;
  };
  const int kRows = simd::kPanelRows;
  for (const BadPanel& bad : {
           BadPanel{std::vector<double>(kRows), kRows, kRows, 1},
           BadPanel{std::vector<double>(2 * kRows, 0.5), kRows, kRows, 3},
           BadPanel{std::vector<double>(3 * 16, 0.5), 16, 5, 3},
           BadPanel{std::vector<double>(3 * 16, 0.5), kRows, 8, 3},
           BadPanel{std::vector<double>(2 * 16 + 7, 0.5), 16, 8, 3},
       }) {
    for (const Status& status : CouplePanel(bad.pairs, bad.stride, bad.rows,
                                            bad.k, opts, &scratch,
                                            out.data())) {
      EXPECT_TRUE(status.IsInvalidArgument())
          << "k=" << bad.k << " rows=" << bad.rows << " stride=" << bad.stride;
    }
  }
}

class CouplingMethodTest : public ::testing::TestWithParam<CouplingMethod> {};

TEST_P(CouplingMethodTest, RecoversConsistentDistribution) {
  const std::vector<double> truth = {0.5, 0.3, 0.2};
  CouplingOptions opts;
  opts.method = GetParam();
  auto p = ValueOrDie(CoupleProbabilities(ConsistentR(truth), 3, opts));
  ASSERT_EQ(p.size(), 3u);
  for (int s = 0; s < 3; ++s) EXPECT_NEAR(p[s], truth[s], 5e-3) << "class " << s;
}

TEST_P(CouplingMethodTest, SumsToOneAndNonNegative) {
  Rng rng(5);
  CouplingOptions opts;
  opts.method = GetParam();
  for (int trial = 0; trial < 50; ++trial) {
    const int k = 2 + static_cast<int>(rng.UniformInt(8));
    std::vector<double> r(static_cast<size_t>(k) * k, 0.0);
    for (int s = 0; s < k; ++s) {
      for (int t = s + 1; t < k; ++t) {
        const double v = rng.Uniform(0.02, 0.98);
        r[static_cast<size_t>(s) * k + t] = v;
        r[static_cast<size_t>(t) * k + s] = 1.0 - v;
      }
    }
    auto p = ValueOrDie(CoupleProbabilities(r, k, opts));
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, -1e-12);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_P(CouplingMethodTest, UniformPairwiseGivesUniformP) {
  const int k = 4;
  std::vector<double> r(static_cast<size_t>(k) * k, 0.5);
  CouplingOptions opts;
  opts.method = GetParam();
  auto p = ValueOrDie(CoupleProbabilities(r, k, opts));
  for (double v : p) EXPECT_NEAR(v, 0.25, 1e-6);
}

TEST_P(CouplingMethodTest, TwoClassesReduceToDirectEstimate) {
  std::vector<double> r = {0.0, 0.7, 0.3, 0.0};
  CouplingOptions opts;
  opts.method = GetParam();
  auto p = ValueOrDie(CoupleProbabilities(r, 2, opts));
  EXPECT_NEAR(p[0], 0.7, 1e-6);
  EXPECT_NEAR(p[1], 0.3, 1e-6);
}

TEST_P(CouplingMethodTest, NanEstimateFails) {
  // A NaN pairwise estimate leaves the distribution undefined; both methods
  // report it instead of returning NaN probabilities.
  std::vector<double> r = ConsistentR({0.5, 0.3, 0.2});
  r[1] = std::nan("");
  r[3] = std::nan("");
  CouplingOptions opts;
  opts.method = GetParam();
  auto p = CoupleProbabilities(r, 3, opts);
  ASSERT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(BothMethods, CouplingMethodTest,
                         ::testing::Values(CouplingMethod::kGaussianElimination,
                                           CouplingMethod::kIterative));

TEST(CouplingCrossMethodTest, MethodsAgreeOnRandomInputs) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const int k = 3 + static_cast<int>(rng.UniformInt(7));
    std::vector<double> r(static_cast<size_t>(k) * k, 0.0);
    for (int s = 0; s < k; ++s) {
      for (int t = s + 1; t < k; ++t) {
        const double v = rng.Uniform(0.05, 0.95);
        r[static_cast<size_t>(s) * k + t] = v;
        r[static_cast<size_t>(t) * k + s] = 1.0 - v;
      }
    }
    CouplingOptions direct;
    direct.method = CouplingMethod::kGaussianElimination;
    CouplingOptions iterative;
    iterative.method = CouplingMethod::kIterative;
    auto pd = ValueOrDie(CoupleProbabilities(r, k, direct));
    auto pi = ValueOrDie(CoupleProbabilities(r, k, iterative));
    // Same argmax always; probabilities close.
    const int am_d = static_cast<int>(std::max_element(pd.begin(), pd.end()) -
                                      pd.begin());
    const int am_i = static_cast<int>(std::max_element(pi.begin(), pi.end()) -
                                      pi.begin());
    EXPECT_EQ(am_d, am_i) << "trial " << trial;
    for (int s = 0; s < k; ++s) EXPECT_NEAR(pd[s], pi[s], 0.02);
  }
}

TEST(CouplingTest, PaperExampleOneFavorsClassOne) {
  // Example 1 of the paper: SVM_{1,2} gives class 1 prob 0.8; SVM_{1,3}
  // gives class 3 prob 0.4 (so class 1 gets 0.6); SVM_{2,3} gives class 2
  // prob 0.4. Class 1 must win the coupled distribution.
  std::vector<double> r = {
      0.0, 0.8, 0.6,  // r_1,2 = 0.8, r_1,3 = 0.6
      0.2, 0.0, 0.4,  // r_2,3 = 0.4
      0.4, 0.6, 0.0,
  };
  CouplingOptions opts;
  auto p = ValueOrDie(CoupleProbabilities(r, 3, opts));
  EXPECT_GT(p[0], p[1]);
  EXPECT_GT(p[0], p[2]);
  EXPECT_GT(p[0], 0.4);
}

TEST(CouplingTest, NearDegenerateRStaysFinite) {
  // r values at the extreme ends stress the linear solve.
  std::vector<double> r = {
      0.0, 0.999, 0.999,
      0.001, 0.0, 0.5,
      0.001, 0.5, 0.0,
  };
  CouplingOptions opts;
  auto p = ValueOrDie(CoupleProbabilities(r, 3, opts));
  double sum = 0.0;
  for (double v : p) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, -1e-12);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(p[0], 0.9);
}

// Consistency sweep: for every class count and every random ground-truth
// distribution, both methods recover the distribution that generated the
// pairwise estimates.
class CouplingConsistencySweep : public ::testing::TestWithParam<int> {};

TEST_P(CouplingConsistencySweep, RecoversGroundTruthAcrossK) {
  const int k = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(k));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> truth(static_cast<size_t>(k));
    double sum = 0.0;
    for (double& v : truth) {
      v = rng.Uniform(0.05, 1.0);
      sum += v;
    }
    for (double& v : truth) v /= sum;
    for (CouplingMethod method : {CouplingMethod::kGaussianElimination,
                                  CouplingMethod::kIterative}) {
      CouplingOptions opts;
      opts.method = method;
      auto p = ValueOrDie(CoupleProbabilities(ConsistentR(truth), k, opts));
      for (int s = 0; s < k; ++s) {
        EXPECT_NEAR(p[static_cast<size_t>(s)], truth[static_cast<size_t>(s)],
                    0.02)
            << "k=" << k << " trial=" << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(K2to20, CouplingConsistencySweep,
                         ::testing::Values(2, 3, 4, 5, 8, 10, 15, 20));

}  // namespace
}  // namespace gmpsvm
