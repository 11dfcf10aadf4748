// Drift detection and canary gating: pure functions of the observation
// sequence. Arming, disarming, windowed metrics, gmpsvm_drift_* series, and
// canary verdicts must all be deterministic and side-effect-free so the
// retrain daemon can claim end-to-end byte-identity.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "online/canary.h"
#include "online/drift.h"

namespace gmpsvm::online {
namespace {

// A confident k=2 response: p(truth) = p, p(other) = 1 - p.
std::vector<double> Response(double p_truth) { return {p_truth, 1.0 - p_truth}; }

TEST(DriftDetectorTest, StaysDisarmedOnGoodPredictions) {
  DriftOptions options;
  options.window = 32;
  options.min_observations = 8;
  options.brier_threshold = 0.5;
  DriftDetector drift(2, options);
  for (int i = 0; i < 64; ++i) drift.Observe(Response(0.95), 0);
  EXPECT_FALSE(drift.armed());
  EXPECT_EQ(drift.times_armed(), 0);
  EXPECT_LT(drift.WindowBrier(), 0.05);
  EXPECT_EQ(drift.window_size(), 32);  // rolling window slides
  EXPECT_EQ(drift.total_observed(), 64);
}

TEST(DriftDetectorTest, ArmsWhenBrierCrossesThreshold) {
  DriftOptions options;
  options.window = 32;
  options.min_observations = 8;
  options.brier_threshold = 0.5;
  DriftDetector drift(2, options);
  // Confidently wrong: truth is class 1, served p(class 0) = 0.9.
  for (int i = 0; i < 7; ++i) drift.Observe(Response(0.1), 0);
  EXPECT_FALSE(drift.armed()) << "must not arm below min_observations";
  drift.Observe(Response(0.1), 0);
  EXPECT_TRUE(drift.armed());
  EXPECT_EQ(drift.times_armed(), 1);
  EXPECT_GT(drift.WindowBrier(), 1.0);
}

TEST(DriftDetectorTest, DisarmClearsWindowAndCanRearm) {
  DriftOptions options;
  options.window = 16;
  options.min_observations = 4;
  options.brier_threshold = 0.5;
  DriftDetector drift(2, options);
  for (int i = 0; i < 8; ++i) drift.Observe(Response(0.05), 0);
  ASSERT_TRUE(drift.armed());
  drift.Disarm();
  EXPECT_FALSE(drift.armed());
  EXPECT_EQ(drift.window_size(), 0);
  EXPECT_EQ(drift.WindowBrier(), 0.0);
  // Persisting drift re-arms once the fresh window refills.
  for (int i = 0; i < 4; ++i) drift.Observe(Response(0.05), 0);
  EXPECT_TRUE(drift.armed());
  EXPECT_EQ(drift.times_armed(), 2);
}

TEST(DriftDetectorTest, PublishesGaugesAndCounter) {
  obs::MetricsRegistry metrics;
  DriftOptions options;
  options.window = 8;
  options.min_observations = 2;
  options.brier_threshold = 0.5;
  options.metrics = &metrics;
  DriftDetector drift(2, options);
  for (int i = 0; i < 4; ++i) drift.Observe(Response(0.05), 0);
  const std::string text = metrics.ToPrometheusText();
  EXPECT_NE(text.find("gmpsvm_drift_brier"), std::string::npos);
  EXPECT_NE(text.find("gmpsvm_drift_log_loss"), std::string::npos);
  EXPECT_NE(text.find("gmpsvm_drift_window"), std::string::npos);
  EXPECT_NE(text.find("gmpsvm_drift_armed 1"), std::string::npos);
  EXPECT_NE(text.find("gmpsvm_drift_armed_total"), std::string::npos);
}

TEST(DriftOptionsTest, ValidateRejectsBadFields) {
  DriftOptions options;
  options.window = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = DriftOptions{};
  options.min_observations = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = DriftOptions{};
  options.brier_threshold = -0.5;
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_TRUE(DriftOptions{}.Validate().ok());
}

TEST(CanaryComparatorTest, SamplingIsDeterministic) {
  CanaryOptions options;
  options.traffic_fraction = 0.5;
  CanaryComparator a(2, options, 77);
  CanaryComparator b(2, options, 77);
  CanaryComparator c(2, options, 78);
  std::vector<bool> draws_a, draws_b, draws_c;
  for (int i = 0; i < 64; ++i) {
    draws_a.push_back(a.ShouldSample());
    draws_b.push_back(b.ShouldSample());
    draws_c.push_back(c.ShouldSample());
  }
  EXPECT_EQ(draws_a, draws_b);
  EXPECT_NE(draws_a, draws_c) << "different seeds must differ somewhere";
}

TEST(CanaryComparatorTest, IdenticalModelsPass) {
  CanaryOptions options;
  options.min_requests = 4;
  CanaryComparator comparator(2, options, 1);
  for (int i = 0; i < 8; ++i) {
    const auto p = Response(0.9);
    comparator.Record(p, p, 0);
  }
  const CanaryVerdict verdict = comparator.Verdict();
  EXPECT_TRUE(verdict.passed) << verdict.reason;
  EXPECT_EQ(verdict.requests_sampled, 8);
  EXPECT_EQ(verdict.max_disagreement, 0.0);
  EXPECT_EQ(verdict.labeled_requests, 8);
}

TEST(CanaryComparatorTest, FailsClosedBelowMinRequests) {
  CanaryOptions options;
  options.min_requests = 8;
  CanaryComparator comparator(2, options, 1);
  for (int i = 0; i < 3; ++i) {
    const auto p = Response(0.9);
    comparator.Record(p, p, 0);
  }
  EXPECT_FALSE(comparator.Verdict().passed);
}

TEST(CanaryComparatorTest, RejectsDisagreementAboveTolerance) {
  CanaryOptions options;
  options.min_requests = 1;
  options.tolerance = 0.3;
  options.brier_slack = -1.0;  // isolate the disagreement gate
  CanaryComparator comparator(2, options, 1);
  comparator.Record(Response(0.9), Response(0.4));  // L-inf distance 0.5
  const CanaryVerdict verdict = comparator.Verdict();
  EXPECT_FALSE(verdict.passed);
  EXPECT_DOUBLE_EQ(verdict.max_disagreement, 0.5);
}

TEST(CanaryComparatorTest, RejectsWorseCandidateBrier) {
  CanaryOptions options;
  options.min_requests = 1;
  options.tolerance = 1.0;
  options.brier_slack = 0.05;
  CanaryComparator comparator(2, options, 1);
  // Incumbent confidently right, candidate confidently wrong.
  for (int i = 0; i < 8; ++i) {
    comparator.Record(Response(0.95), Response(0.05), 0);
  }
  const CanaryVerdict verdict = comparator.Verdict();
  EXPECT_FALSE(verdict.passed);
  EXPECT_GT(verdict.candidate_brier, verdict.incumbent_brier);
}

TEST(CanaryComparatorTest, UnlabeledTrafficSkipsBrierGate) {
  CanaryOptions options;
  options.min_requests = 1;
  options.tolerance = 1.0;
  options.brier_slack = 0.0;
  CanaryComparator comparator(2, options, 1);
  comparator.Record(Response(0.95), Response(0.6));  // no truth
  const CanaryVerdict verdict = comparator.Verdict();
  EXPECT_TRUE(verdict.passed) << verdict.reason;
  EXPECT_EQ(verdict.labeled_requests, 0);
}

TEST(CanaryOptionsTest, ValidateRejectsBadFields) {
  CanaryOptions options;
  options.traffic_fraction = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options = CanaryOptions{};
  options.tolerance = -0.1;
  EXPECT_FALSE(options.Validate().ok());
  options = CanaryOptions{};
  options.min_requests = 0;
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_TRUE(CanaryOptions{}.Validate().ok());
}

}  // namespace
}  // namespace gmpsvm::online
