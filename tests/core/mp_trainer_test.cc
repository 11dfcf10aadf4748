#include "core/mp_trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <unordered_set>

#include "../test_util.h"
#include "baselines/libsvm_ref.h"
#include "core/predictor.h"
#include "metrics/metrics.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

KernelParams Gaussian(double gamma) {
  KernelParams p;
  p.gamma = gamma;
  return p;
}

MpTrainOptions SmallGmpOptions(double c = 1.0, double gamma = 0.3) {
  MpTrainOptions options;
  options.c = c;
  options.kernel = Gaussian(gamma);
  options.batch.working_set.ws_size = 32;
  options.batch.working_set.q = 16;
  options.max_concurrent_svms = 4;
  options.shared_cache_bytes = 64ull << 20;
  return options;
}

SimExecutor Gpu() { return SimExecutor(ExecutorModel::TeslaP100()); }

TEST(GmpSvmTrainerTest, TrainsAllPairs) {
  auto data = ValueOrDie(MakeMulticlassBlobs(4, 25, 6, 3.0, 42));
  SimExecutor exec = Gpu();
  MpTrainReport report;
  auto model =
      ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(data, &exec, &report));
  EXPECT_EQ(model.num_classes, 4);
  EXPECT_EQ(model.num_pairs(), 6);
  EXPECT_GT(model.pool_size(), 0);
  EXPECT_GT(report.sim_seconds, 0.0);
  EXPECT_GT(report.solver.iterations, 0);
  for (const auto& svm : model.svms) {
    EXPECT_GT(svm.num_svs(), 0) << svm.class_s << "," << svm.class_t;
    EXPECT_LT(svm.sigmoid.a, 0.0);  // separable data: decreasing sigmoid in -v
  }
}

TEST(GmpSvmTrainerTest, PairOrderMatchesPairIndex) {
  auto data = ValueOrDie(MakeMulticlassBlobs(5, 12, 5, 3.0, 7));
  SimExecutor exec = Gpu();
  auto model =
      ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(data, &exec, nullptr));
  for (int s = 0; s < 5; ++s) {
    for (int t = s + 1; t < 5; ++t) {
      const auto& svm = model.svms[static_cast<size_t>(model.PairIndex(s, t))];
      EXPECT_EQ(svm.class_s, s);
      EXPECT_EQ(svm.class_t, t);
    }
  }
}

TEST(GmpSvmTrainerTest, SupportVectorPoolIsDeduplicated) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 30, 5, 1.5, 11));
  SimExecutor exec = Gpu();
  auto model =
      ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(data, &exec, nullptr));
  std::unordered_set<int32_t> uniq(model.pool_source_rows.begin(),
                                   model.pool_source_rows.end());
  EXPECT_EQ(uniq.size(), model.pool_source_rows.size());
  // Sharing means strictly fewer pool entries than total references on
  // overlapping multi-class data.
  EXPECT_LT(model.pool_size(), model.total_sv_references());
}

TEST(GmpSvmTrainerTest, UnsharedPoolDuplicates) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 30, 5, 1.5, 11));
  MpTrainOptions options = SmallGmpOptions();
  options.share_support_vectors = false;
  SimExecutor exec = Gpu();
  auto model = ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));
  EXPECT_EQ(model.pool_size(), model.total_sv_references());
}

TEST(GmpSvmTrainerTest, MatchesLibsvmReferenceClassifier) {
  // The Table 4 claim at test scale: same biases and same training errors.
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 30, 6, 2.0, 13));
  SimExecutor gpu = Gpu();
  auto gmp = ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(data, &gpu, nullptr));

  SimExecutor cpu(ExecutorModel::XeonCpu(1));
  LibsvmRefTrainer libsvm(1.0, Gaussian(0.3));
  auto ref = ValueOrDie(libsvm.Train(data, &cpu, nullptr));

  auto agreement = ValueOrDie(CompareModels(gmp, ref));
  EXPECT_LT(agreement.max_bias_diff, 5e-2);

  // Training errors agree exactly.
  SimExecutor pred_exec = Gpu();
  PredictOptions popts;
  auto gmp_pred = ValueOrDie(
      MpSvmPredictor(&gmp).Predict(data.features(), &pred_exec, popts));
  auto ref_pred = ValueOrDie(
      MpSvmPredictor(&ref).Predict(data.features(), &pred_exec, popts));
  const double gmp_err = ValueOrDie(ErrorRate(gmp_pred.labels, data.labels()));
  const double ref_err = ValueOrDie(ErrorRate(ref_pred.labels, data.labels()));
  EXPECT_DOUBLE_EQ(gmp_err, ref_err);
}

TEST(GmpSvmTrainerTest, DeterministicAcrossRuns) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 20, 5, 2.5, 17));
  SimExecutor e1 = Gpu(), e2 = Gpu();
  auto m1 = ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(data, &e1, nullptr));
  auto m2 = ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(data, &e2, nullptr));
  ASSERT_EQ(m1.svms.size(), m2.svms.size());
  for (size_t p = 0; p < m1.svms.size(); ++p) {
    EXPECT_DOUBLE_EQ(m1.svms[p].bias, m2.svms[p].bias);
    EXPECT_EQ(m1.svms[p].sv_coef, m2.svms[p].sv_coef);
  }
  EXPECT_DOUBLE_EQ(e1.NowSeconds(), e2.NowSeconds());
}

TEST(GmpSvmTrainerTest, ConcurrencyReducesSimTime) {
  auto data = ValueOrDie(MakeMulticlassBlobs(6, 20, 6, 2.5, 19));
  MpTrainOptions serial = SmallGmpOptions();
  serial.max_concurrent_svms = 1;
  MpTrainOptions concurrent = SmallGmpOptions();
  concurrent.max_concurrent_svms = 8;

  SimExecutor e1 = Gpu(), e2 = Gpu();
  MpTrainReport r1, r2;
  ValueOrDie(GmpSvmTrainer(serial).Train(data, &e1, &r1));
  ValueOrDie(GmpSvmTrainer(concurrent).Train(data, &e2, &r2));
  EXPECT_LT(r2.sim_seconds, r1.sim_seconds);
}

TEST(GmpSvmTrainerTest, KernelBlockSharingReducesComputedValues) {
  auto data = ValueOrDie(MakeMulticlassBlobs(5, 24, 6, 1.2, 23));
  MpTrainOptions shared = SmallGmpOptions();
  shared.share_kernel_blocks = true;
  MpTrainOptions unshared = SmallGmpOptions();
  unshared.share_kernel_blocks = false;

  SimExecutor e1 = Gpu(), e2 = Gpu();
  MpTrainReport r1, r2;
  ValueOrDie(GmpSvmTrainer(shared).Train(data, &e1, &r1));
  ValueOrDie(GmpSvmTrainer(unshared).Train(data, &e2, &r2));
  EXPECT_LT(r1.kernel_values_computed, r2.kernel_values_computed);
}

TEST(SequentialMpTrainerTest, BaselineTrainsSameClassifier) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 25, 5, 2.0, 29));
  MpTrainOptions options;
  options.c = 1.0;
  options.kernel = Gaussian(0.3);
  options.smo.cache_bytes = 512ull << 20;
  options.smo.cache_on_device = true;  // the GPU baseline's 4GB-style cache
  SimExecutor exec = Gpu();
  MpTrainReport report;
  auto baseline =
      ValueOrDie(SequentialMpTrainer(options).Train(data, &exec, &report));
  EXPECT_EQ(baseline.num_pairs(), 3);
  EXPECT_GT(report.sim_seconds, 0.0);

  SimExecutor e2 = Gpu();
  auto gmp = ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(data, &e2, nullptr));
  auto agreement = ValueOrDie(CompareModels(baseline, gmp));
  EXPECT_LT(agreement.max_bias_diff, 5e-2);
}

TEST(GmpSvmTrainerTest, FasterThanSequentialBaselineInSimTime) {
  // The headline Table 3 relationship at test scale: GMP < baseline sim time.
  auto data = ValueOrDie(MakeMulticlassBlobs(5, 30, 6, 1.5, 31));
  MpTrainOptions baseline_options;
  baseline_options.c = 1.0;
  baseline_options.kernel = Gaussian(0.3);
  baseline_options.smo.cache_on_device = true;

  SimExecutor e1 = Gpu(), e2 = Gpu();
  MpTrainReport rb, rg;
  ValueOrDie(SequentialMpTrainer(baseline_options).Train(data, &e1, &rb));
  ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(data, &e2, &rg));
  EXPECT_LT(rg.sim_seconds, rb.sim_seconds);
}

TEST(GmpSvmTrainerTest, CpuExecutorActsAsCmpSvm) {
  // Same trainer on the CPU model = CMP-SVM; classifier matches, and at a
  // realistic problem size (GPU launch overhead amortized) the GPU run is
  // faster in simulated time.
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 400, 16, 1.6, 37));
  MpTrainOptions options = SmallGmpOptions();
  options.batch.working_set.ws_size = 128;
  options.batch.working_set.q = 64;
  SimExecutor gpu = Gpu();
  SimExecutor cpu(ExecutorModel::XeonCpu(40));
  MpTrainReport rg, rc;
  auto mg = ValueOrDie(GmpSvmTrainer(options).Train(data, &gpu, &rg));
  auto mc = ValueOrDie(GmpSvmTrainer(options).Train(data, &cpu, &rc));
  auto agreement = ValueOrDie(CompareModels(mg, mc));
  EXPECT_LT(agreement.max_bias_diff, 1e-9);  // identical math, identical model
  EXPECT_LT(rg.sim_seconds, rc.sim_seconds);
}

TEST(GmpSvmTrainerTest, ReportsPhaseBreakdown) {
  // Higher-dimensional data, where the paper observes kernel-value
  // computation dominating the training time.
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 120, 48, 1.5, 41));
  SimExecutor exec = Gpu();
  MpTrainReport report;
  ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(data, &exec, &report));
  EXPECT_GT(report.phases.Get("kernel_values"), 0.0);
  EXPECT_GT(report.phases.Get("subproblem"), 0.0);
  EXPECT_GT(report.phases.Get("sigmoid"), 0.0);
  // Kernel values dominate (the Figure 11 shape).
  EXPECT_GT(report.phases.Get("kernel_values"), report.phases.Get("subproblem"));
}

TEST(GmpSvmTrainerTest, BinaryDatasetWorks) {
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 40, 5, 2.5, 43));
  SimExecutor exec = Gpu();
  auto model =
      ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(data, &exec, nullptr));
  EXPECT_EQ(model.num_pairs(), 1);
  EXPECT_EQ(model.svms[0].class_s, 0);
  EXPECT_EQ(model.svms[0].class_t, 1);
}

TEST(MpTrainOptionsValidateTest, RejectsBadFieldsByName) {
  MpTrainOptions options = SmallGmpOptions();
  EXPECT_TRUE(options.Validate(3).ok());

  MpTrainOptions bad_c = options;
  bad_c.c = 0.0;
  Status s = bad_c.Validate(3);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("c must be positive"), std::string::npos);

  MpTrainOptions bad_ws = options;
  bad_ws.batch.working_set.ws_size = 1;
  s = bad_ws.Validate(3);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("ws_size"), std::string::npos);

  for (double eps : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    MpTrainOptions bad_smo_eps = options;
    bad_smo_eps.smo.eps = eps;
    s = bad_smo_eps.Validate(3);
    EXPECT_TRUE(s.IsInvalidArgument()) << eps;
    EXPECT_NE(s.message().find("smo.eps"), std::string::npos) << s.message();
  }

  MpTrainOptions bad_weights = options;
  bad_weights.class_weights = {1.0, 2.0};  // 3 classes
  s = bad_weights.Validate(3);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("class_weights"), std::string::npos);

  MpTrainOptions bad_folds = options;
  bad_folds.sigmoid_cv_folds = 1;
  EXPECT_TRUE(bad_folds.Validate(3).IsInvalidArgument());
}

TEST(MpTrainOptionsValidateTest, TrainerFailsFastOnInvalidOptions) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 30, 5, 2.5, 44));
  SimExecutor exec = Gpu();
  MpTrainOptions options = SmallGmpOptions();
  options.max_concurrent_svms = 0;
  auto gmp = GmpSvmTrainer(options).Train(data, &exec, nullptr);
  ASSERT_FALSE(gmp.ok());
  EXPECT_TRUE(gmp.status().IsInvalidArgument());
  EXPECT_NE(gmp.status().message().find("max_concurrent_svms"),
            std::string::npos);
  auto seq = SequentialMpTrainer(options).Train(data, &exec, nullptr);
  ASSERT_FALSE(seq.ok());
  EXPECT_TRUE(seq.status().IsInvalidArgument());
}

}  // namespace
}  // namespace gmpsvm
