// Prediction-cascade contract tests (docs/cascade.md):
//   * kExact is byte-for-byte the pre-cascade predictor and reports zero
//     cascade activity;
//   * kEliminate's top-1 labels agree with exact coupling on separable data;
//   * ambiguity_band = 1.0 forces the exact fallback for every row and the
//     output is byte-identical to kExact;
//   * the elimination scan keeps working past 64 classes (two words of
//     its alive bitset);
//   * PredictOptions::Validate names the offending field;
//   * cascade stats survive a model v2 round-trip, and v1 files still load
//     (with no stats).

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

KernelParams Gaussian(double gamma) {
  KernelParams p;
  p.gamma = gamma;
  return p;
}

MpTrainOptions SmallGmpOptions() {
  MpTrainOptions options;
  options.c = 1.0;
  options.kernel = Gaussian(0.3);
  options.batch.working_set.ws_size = 32;
  options.batch.working_set.q = 16;
  options.shared_cache_bytes = 64ull << 20;
  return options;
}

SimExecutor Gpu() { return SimExecutor(ExecutorModel::TeslaP100()); }

struct TrainedFixture {
  Dataset train;
  Dataset test;
  MpSvmModel model;
};

TrainedFixture MakeFixture(int k, uint64_t seed, double separation = 3.0) {
  TrainedFixture fx{
      ValueOrDie(MakeMulticlassBlobs(k, 30, 6, separation, seed)),
      ValueOrDie(MakeMulticlassBlobs(k, 12, 6, separation, seed + 1000)),
      MpSvmModel{},
  };
  SimExecutor exec = Gpu();
  fx.model = ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(fx.train, &exec,
                                                               nullptr));
  return fx;
}

PredictOptions EliminateOptions(double band) {
  PredictOptions options;
  options.cascade.mode = CascadeOptions::Mode::kEliminate;
  options.cascade.ambiguity_band = band;
  return options;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(CascadeTest, TrainingStampsCascadeStats) {
  TrainedFixture fx = MakeFixture(4, 21);
  ASSERT_TRUE(fx.model.has_cascade_stats());
  ASSERT_EQ(fx.model.cascade.size(), fx.model.svms.size());
  for (const PairCascadeStats& stats : fx.model.cascade) {
    EXPECT_GE(stats.score, 0.0);
    // Balanced blobs: every class holds 1/4 of the training rows.
    EXPECT_DOUBLE_EQ(stats.prior_s, 0.25);
    EXPECT_DOUBLE_EQ(stats.prior_t, 0.25);
  }
}

TEST(CascadeTest, ExactModeIsByteIdenticalToDefaultOptions) {
  TrainedFixture fx = MakeFixture(5, 23);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  PredictOptions exact;
  exact.cascade.mode = CascadeOptions::Mode::kExact;
  auto a = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1, exact));
  auto b = ValueOrDie(MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e2,
                                                        PredictOptions{}));
  EXPECT_TRUE(SameBytes(a.probabilities, b.probabilities));
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.cascade_rows, 0);
  EXPECT_EQ(a.cascade_fallback_rows, 0);
  EXPECT_EQ(a.cascade_pairs_evaluated, 0);
  EXPECT_EQ(a.cascade_classes_eliminated, 0);
}

TEST(CascadeTest, EliminateAgreesWithExactOnSeparableData) {
  // Default ambiguity band (0.05): confident rows keep their pruned
  // coupling, rows whose survivor margin is inside the band re-run exactly.
  // On separable blobs that leaves only rows that are confidently pruned
  // AND genuinely ambiguous under exact coupling to disagree — under 1%.
  TrainedFixture fx = MakeFixture(8, 29);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  auto exact = ValueOrDie(MpSvmPredictor(&fx.model).Predict(fx.test.features(),
                                                            &e1,
                                                            PredictOptions{}));
  auto cascade = ValueOrDie(MpSvmPredictor(&fx.model).Predict(
      fx.test.features(), &e2, EliminateOptions(0.05)));
  EXPECT_EQ(cascade.cascade_rows, cascade.num_instances);
  // The band must not degenerate into running everything exactly.
  EXPECT_LT(cascade.cascade_fallback_rows, cascade.num_instances / 4);
  EXPECT_GT(cascade.cascade_classes_eliminated, 0);

  int64_t agree = 0;
  for (int64_t i = 0; i < exact.num_instances; ++i) {
    if (exact.labels[static_cast<size_t>(i)] ==
        cascade.labels[static_cast<size_t>(i)]) {
      ++agree;
    }
  }
  EXPECT_GE(static_cast<double>(agree) /
                static_cast<double>(exact.num_instances),
            0.99);
}

TEST(CascadeTest, FullBandForcesExactFallbackEverywhere) {
  TrainedFixture fx = MakeFixture(6, 31);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  auto exact = ValueOrDie(MpSvmPredictor(&fx.model).Predict(fx.test.features(),
                                                            &e1,
                                                            PredictOptions{}));
  auto cascade = ValueOrDie(MpSvmPredictor(&fx.model).Predict(
      fx.test.features(), &e2, EliminateOptions(1.0)));
  EXPECT_EQ(cascade.cascade_fallback_rows, cascade.num_instances);
  EXPECT_TRUE(SameBytes(exact.probabilities, cascade.probabilities));
  EXPECT_EQ(exact.labels, cascade.labels);
}

TEST(CascadeTest, SharedAndPerSvmCascadePathsAgreeExactly) {
  // Both paths compute kernel values through the same scatter-gather
  // arithmetic, so the ablation (share_kernel_values = false) reproduces the
  // shared cascade bit for bit.
  TrainedFixture fx = MakeFixture(6, 37);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  PredictOptions shared = EliminateOptions(0.05);
  PredictOptions per_svm = EliminateOptions(0.05);
  per_svm.share_kernel_values = false;
  auto a = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1, shared));
  auto b = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e2, per_svm));
  EXPECT_TRUE(SameBytes(a.probabilities, b.probabilities));
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.cascade_fallback_rows, b.cascade_fallback_rows);
  EXPECT_EQ(a.cascade_pairs_evaluated, b.cascade_pairs_evaluated);
}

TEST(CascadeTest, MoreThanSixtyFourClassesSpanTwoAliveWords) {
  // k = 70: the scan's alive bitset takes two 64-bit words, and classes
  // 64..69 live in the second. Each class has a feature dimension of its
  // own and little noise, so the blobs are separable; a class of the second
  // word that died with its first-word namesake (class - 64) would mislabel
  // its rows.
  constexpr int kClasses = 70;
  TrainedFixture fx{
      ValueOrDie(MakeMulticlassBlobs(kClasses, 6, kClasses, 4.0, 53, 0.3)),
      ValueOrDie(MakeMulticlassBlobs(kClasses, 2, kClasses, 4.0, 1053, 0.3)),
      MpSvmModel{},
  };
  MpTrainOptions options = SmallGmpOptions();
  options.kernel = Gaussian(0.05);
  SimExecutor train_exec = Gpu();
  fx.model = ValueOrDie(
      GmpSvmTrainer(options).Train(fx.train, &train_exec, nullptr));
  SimExecutor e1 = Gpu(), e2 = Gpu(), e3 = Gpu();
  const MpSvmPredictor predictor(&fx.model);
  auto exact = ValueOrDie(
      predictor.Predict(fx.test.features(), &e1, PredictOptions{}));
  auto cascade = ValueOrDie(
      predictor.Predict(fx.test.features(), &e2, EliminateOptions(0.05)));
  EXPECT_GT(cascade.cascade_classes_eliminated, 0);
  EXPECT_LT(cascade.cascade_fallback_rows, cascade.num_instances / 4);
  int64_t high_rows = 0;
  for (int64_t i = 0; i < exact.num_instances; ++i) {
    const int32_t truth = fx.test.labels()[static_cast<size_t>(i)];
    EXPECT_EQ(exact.labels[static_cast<size_t>(i)], truth) << "row " << i;
    EXPECT_EQ(cascade.labels[static_cast<size_t>(i)], truth) << "row " << i;
    high_rows += truth >= 64 ? 1 : 0;
  }
  EXPECT_EQ(high_rows, 2 * (kClasses - 64));
  auto full_band = ValueOrDie(
      predictor.Predict(fx.test.features(), &e3, EliminateOptions(1.0)));
  EXPECT_TRUE(SameBytes(exact.probabilities, full_band.probabilities));
}

TEST(CascadeTest, EliminationComputesFewerKernelValuesThanExact) {
  TrainedFixture fx = MakeFixture(8, 41);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  ValueOrDie(MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1,
                                               PredictOptions{}));
  ValueOrDie(MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e2,
                                               EliminateOptions(0.0)));
  EXPECT_LT(e2.counters().kernel_values_computed,
            e1.counters().kernel_values_computed);
}

TEST(CascadeTest, EliminationPhaseIsReported) {
  TrainedFixture fx = MakeFixture(5, 43);
  SimExecutor exec = Gpu();
  auto result = ValueOrDie(MpSvmPredictor(&fx.model).Predict(
      fx.test.features(), &exec, EliminateOptions(0.05)));
  EXPECT_GT(result.phases.Get("elimination"), 0.0);
  EXPECT_GT(result.phases.Get("coupling"), 0.0);
}

TEST(CascadeTest, ValidateNamesOffendingField) {
  PredictOptions options;
  options.cascade.budget = -1;
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cascade.budget"), std::string::npos);

  options = PredictOptions{};
  options.cascade.elimination_threshold = 0.0;
  status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cascade.elimination_threshold"),
            std::string::npos);

  options = PredictOptions{};
  options.cascade.ambiguity_band = 1.5;
  status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cascade.ambiguity_band"),
            std::string::npos);

  options = PredictOptions{};
  options.tile_rows = -1;
  status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("tile_rows"), std::string::npos);

  options = PredictOptions{};
  options.cascade.mode = CascadeOptions::Mode::kEliminate;
  options.decision = PredictOptions::Decision::kVoting;
  status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());

  EXPECT_TRUE(PredictOptions{}.Validate().ok());
}

TEST(CascadeTest, CascadeStatsSurviveModelRoundTrip) {
  TrainedFixture fx = MakeFixture(4, 47);
  ASSERT_TRUE(fx.model.has_cascade_stats());
  const std::string text = SerializeModel(fx.model);
  EXPECT_NE(text.find("gmpsvm_model_v2"), std::string::npos);
  auto loaded = ValueOrDie(DeserializeModel(text));
  ASSERT_TRUE(loaded.has_cascade_stats());
  ASSERT_EQ(loaded.cascade.size(), fx.model.cascade.size());
  for (size_t i = 0; i < loaded.cascade.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.cascade[i].score, fx.model.cascade[i].score);
    EXPECT_DOUBLE_EQ(loaded.cascade[i].prior_s, fx.model.cascade[i].prior_s);
    EXPECT_DOUBLE_EQ(loaded.cascade[i].prior_t, fx.model.cascade[i].prior_t);
  }
  // The round-trip re-serializes to the same bytes.
  EXPECT_EQ(SerializeModel(loaded), text);
}

TEST(CascadeTest, V1ModelsLoadWithoutCascadeStats) {
  TrainedFixture fx = MakeFixture(3, 53);
  MpSvmModel stripped = fx.model;
  stripped.cascade.clear();
  std::string text = SerializeModel(stripped);
  EXPECT_EQ(text.find("cascade"), std::string::npos);
  const size_t magic = text.find("gmpsvm_model_v2");
  ASSERT_NE(magic, std::string::npos);
  text.replace(magic, 15, "gmpsvm_model_v1");

  auto loaded = ValueOrDie(DeserializeModel(text));
  EXPECT_FALSE(loaded.has_cascade_stats());
  EXPECT_EQ(loaded.num_classes, fx.model.num_classes);

  // A stat-less model still predicts in eliminate mode (index-order scan).
  SimExecutor exec = Gpu();
  auto result = ValueOrDie(MpSvmPredictor(&loaded).Predict(
      fx.test.features(), &exec, EliminateOptions(0.05)));
  EXPECT_EQ(result.cascade_rows, result.num_instances);
}

TEST(CascadeTest, VotingPlusEliminateIsRejectedAtPredict) {
  TrainedFixture fx = MakeFixture(3, 59);
  SimExecutor exec = Gpu();
  PredictOptions options = EliminateOptions(0.05);
  options.decision = PredictOptions::Decision::kVoting;
  auto result =
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &exec, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace gmpsvm
