// End-to-end integration tests: every Table-2 proxy dataset (at a tiny
// scale) through generate -> train (GMP + baseline + LibSVM ref) -> predict
// -> serialize, asserting the cross-implementation invariants the paper's
// evaluation depends on.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/libsvm_ref.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "data/synthetic.h"
#include "device/executor.h"
#include "metrics/calibration.h"
#include "metrics/metrics.h"

namespace gmpsvm {
namespace {

constexpr double kTinyScale = 0.04;

MpTrainOptions GmpOptions(const SyntheticSpec& spec) {
  MpTrainOptions options;
  options.c = spec.c;
  options.kernel.gamma = spec.gamma;
  options.batch.working_set.ws_size = 64;
  options.batch.working_set.q = 32;
  options.shared_cache_bytes = 64ull << 20;
  return options;
}

class PaperDatasetPipelineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperDatasetPipelineTest, EndToEnd) {
  auto spec = ValueOrDie(FindPaperSpec(GetParam(), kTinyScale));
  Dataset train = ValueOrDie(GenerateSynthetic(spec));
  Dataset test = ValueOrDie(GenerateSyntheticTest(spec));
  ASSERT_EQ(train.num_classes(), spec.num_classes);

  // GMP-SVM on the simulated GPU.
  SimExecutor gpu(ExecutorModel::TeslaP100());
  MpTrainReport report;
  MpSvmModel gmp =
      ValueOrDie(GmpSvmTrainer(GmpOptions(spec)).Train(train, &gpu, &report));
  EXPECT_EQ(gmp.num_pairs(), spec.num_classes * (spec.num_classes - 1) / 2);
  EXPECT_GT(report.sim_seconds, 0.0);
  EXPECT_EQ(gpu.bytes_in_use(), 0u) << "device memory leaked";

  // LibSVM reference on the CPU model.
  SimExecutor cpu(ExecutorModel::XeonCpu(1));
  LibsvmRefTrainer libsvm(spec.c, gmp.kernel);
  MpSvmModel ref = ValueOrDie(libsvm.Train(train, &cpu, nullptr));

  // Table 4 invariant: same classifier.
  auto agreement = ValueOrDie(CompareModels(gmp, ref));
  EXPECT_LT(agreement.max_bias_diff, 0.1) << GetParam();

  // Predictions: probabilities are distributions; both models agree on
  // training-set error.
  PredictOptions popts;
  auto gmp_pred =
      ValueOrDie(MpSvmPredictor(&gmp).Predict(test.features(), &gpu, popts));
  for (int64_t i = 0; i < gmp_pred.num_instances; ++i) {
    double sum = 0.0;
    for (int c = 0; c < spec.num_classes; ++c) {
      const double p = gmp_pred.Probability(i, c);
      EXPECT_GE(p, -1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  auto ref_pred = ValueOrDie(
      MpSvmPredictor(&ref).Predict(train.features(), &cpu, LibsvmPredictOptions()));
  auto gmp_train_pred =
      ValueOrDie(MpSvmPredictor(&gmp).Predict(train.features(), &gpu, popts));
  const double gmp_err = ValueOrDie(ErrorRate(gmp_train_pred.labels, train.labels()));
  const double ref_err = ValueOrDie(ErrorRate(ref_pred.labels, train.labels()));
  EXPECT_NEAR(gmp_err, ref_err, 0.02) << GetParam();

  // Probability quality is sane (log loss clearly better than uniform).
  const double ll = ValueOrDie(
      LogLoss(gmp_pred.probabilities, test.labels(), spec.num_classes));
  EXPECT_LT(ll, std::log(static_cast<double>(spec.num_classes)) + 0.5);

  // Serialization round trip predicts identically.
  MpSvmModel restored = ValueOrDie(DeserializeModel(SerializeModel(gmp)));
  auto restored_pred = ValueOrDie(
      MpSvmPredictor(&restored).Predict(test.features(), &gpu, popts));
  EXPECT_EQ(restored_pred.labels, gmp_pred.labels);
}

INSTANTIATE_TEST_SUITE_P(AllPaperDatasets, PaperDatasetPipelineTest,
                         ::testing::Values("Adult", "RCV1", "Real-sim", "Webdata",
                                           "CIFAR-10", "Connect-4", "MNIST",
                                           "MNIST8M", "News20"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(PipelineInvariantsTest, BaselineAndGmpSameClassifierEverywhere) {
  auto spec = ValueOrDie(FindPaperSpec("Connect-4", kTinyScale));
  Dataset train = ValueOrDie(GenerateSynthetic(spec));

  SimExecutor e1(ExecutorModel::TeslaP100());
  auto gmp = ValueOrDie(GmpSvmTrainer(GmpOptions(spec)).Train(train, &e1, nullptr));

  MpTrainOptions baseline_options;
  baseline_options.c = spec.c;
  baseline_options.kernel.gamma = spec.gamma;
  baseline_options.smo.cache_on_device = true;
  SimExecutor e2(ExecutorModel::TeslaP100());
  auto baseline =
      ValueOrDie(SequentialMpTrainer(baseline_options).Train(train, &e2, nullptr));

  auto agreement = ValueOrDie(CompareModels(gmp, baseline));
  EXPECT_LT(agreement.max_bias_diff, 0.1);
}

TEST(PipelineInvariantsTest, SimTimeScalesWithData) {
  // Sanity on the cost model: 4x the data costs more simulated time.
  auto small_spec = ValueOrDie(FindPaperSpec("Webdata", 0.02));
  auto large_spec = ValueOrDie(FindPaperSpec("Webdata", 0.08));
  Dataset small = ValueOrDie(GenerateSynthetic(small_spec));
  Dataset large = ValueOrDie(GenerateSynthetic(large_spec));
  SimExecutor e1(ExecutorModel::TeslaP100()), e2(ExecutorModel::TeslaP100());
  MpTrainReport r1, r2;
  ValueOrDie(GmpSvmTrainer(GmpOptions(small_spec)).Train(small, &e1, &r1));
  ValueOrDie(GmpSvmTrainer(GmpOptions(large_spec)).Train(large, &e2, &r2));
  EXPECT_GT(r2.sim_seconds, r1.sim_seconds);
}

// Full pipeline at C = 1 and gamma = 0.1, off the spec's own values:
// training, identity vs the LibSVM reference, and probability sanity.
TEST(PipelineInvariantsTest, TrainPredictIdentityOffSpecParameters) {
  SyntheticSpec spec = ValueOrDie(FindPaperSpec("Connect-4", kTinyScale));
  Dataset train = ValueOrDie(GenerateSynthetic(spec));
  Dataset test = ValueOrDie(GenerateSyntheticTest(spec));

  MpTrainOptions options = GmpOptions(spec);
  options.c = 1.0;
  options.kernel.gamma = 0.1;
  options.batch.max_outer_rounds = 20000;

  SimExecutor gpu(ExecutorModel::TeslaP100());
  MpSvmModel gmp = ValueOrDie(GmpSvmTrainer(options).Train(train, &gpu, nullptr));

  SimExecutor cpu(ExecutorModel::XeonCpu(1));
  MpTrainOptions ref_options = LibsvmTrainOptions(options.c, options.kernel);
  MpSvmModel ref =
      ValueOrDie(SequentialMpTrainer(ref_options).Train(train, &cpu, nullptr));
  auto agreement = ValueOrDie(CompareModels(gmp, ref));
  EXPECT_LT(agreement.max_bias_diff, 0.15);

  auto pred = ValueOrDie(
      MpSvmPredictor(&gmp).Predict(test.features(), &gpu, PredictOptions{}));
  for (int64_t i = 0; i < pred.num_instances; ++i) {
    double sum = 0.0;
    for (int c = 0; c < spec.num_classes; ++c) sum += pred.Probability(i, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace gmpsvm
