#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "../test_util.h"
#include "baselines/gpusvm_like.h"
#include "baselines/gtsvm_like.h"
#include "baselines/libsvm_ref.h"
#include "baselines/ohd_svm_like.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "metrics/metrics.h"
#include "solver/smo_solver.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

KernelParams Gaussian(double gamma) {
  KernelParams p;
  p.gamma = gamma;
  return p;
}

SimExecutor Gpu() { return SimExecutor(ExecutorModel::TeslaP100()); }

TEST(LibsvmRefTest, ExecutorModels) {
  SimExecutor single(ExecutorModel::XeonCpu(1));
  SimExecutor omp(ExecutorModel::XeonCpu(40));
  EXPECT_DOUBLE_EQ(single.model().compute_units, 1.0);
  EXPECT_GT(omp.model().compute_units, single.model().compute_units);
  EXPECT_TRUE(single.model().transfers_are_free);
}

TEST(LibsvmRefTest, TrainsAndPredicts) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 25, 5, 2.5, 42));
  SimExecutor cpu(ExecutorModel::XeonCpu(1));
  LibsvmRefTrainer trainer(1.0, Gaussian(0.3));
  MpTrainReport report;
  auto model = ValueOrDie(trainer.Train(data, &cpu, &report));
  EXPECT_EQ(model.num_pairs(), 3);
  EXPECT_GT(report.sim_seconds, 0.0);

  auto pred = ValueOrDie(MpSvmPredictor(&model).Predict(
      data.features(), &cpu, LibsvmPredictOptions()));
  const double err = ValueOrDie(ErrorRate(pred.labels, data.labels()));
  EXPECT_LT(err, 0.1);
}

TEST(LibsvmRefTest, OpenMpModelIsFasterThanSingleThread) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 30, 6, 2.0, 7));
  LibsvmRefTrainer trainer(1.0, Gaussian(0.3));
  SimExecutor single(ExecutorModel::XeonCpu(1));
  SimExecutor omp(ExecutorModel::XeonCpu(40));
  MpTrainReport r1, r40;
  ValueOrDie(trainer.Train(data, &single, &r1));
  ValueOrDie(trainer.Train(data, &omp, &r40));
  EXPECT_LT(r40.sim_seconds, r1.sim_seconds);
  // OpenMP gives the paper's ~4-10x, not superlinear gains.
  EXPECT_GT(r40.sim_seconds, r1.sim_seconds / 25.0);
}

TEST(GtsvmLikeTest, TrainsMulticlassWithoutProbability) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 25, 5, 2.0, 11));
  GtsvmLikeOptions options;
  options.c = 1.0;
  options.kernel = Gaussian(0.3);
  SimExecutor exec = Gpu();
  MpTrainReport report;
  auto model =
      ValueOrDie(GtsvmLikeTrainer(options).Train(data, &exec, &report));
  EXPECT_EQ(model.num_pairs(), 3);
  EXPECT_GT(report.sim_seconds, 0.0);
  // No sigmoids fitted.
  for (const auto& svm : model.svms) {
    EXPECT_DOUBLE_EQ(svm.sigmoid.a, 0.0);
    EXPECT_DOUBLE_EQ(svm.sigmoid.b, 0.0);
  }
}

TEST(GtsvmLikeTest, SlowerThanGmpOnMulticlass) {
  // The Figure 8 relationship: GMP-SVM beats the GTSVM-like trainer.
  auto data = ValueOrDie(MakeMulticlassBlobs(5, 25, 6, 1.5, 13));
  GtsvmLikeOptions gt;
  gt.c = 1.0;
  gt.kernel = Gaussian(0.3);
  SimExecutor e1 = Gpu();
  MpTrainReport rg;
  ValueOrDie(GtsvmLikeTrainer(gt).Train(data, &e1, &rg));

  MpTrainOptions gmp;
  gmp.c = 1.0;
  gmp.kernel = Gaussian(0.3);
  gmp.batch.working_set.ws_size = 32;
  gmp.batch.working_set.q = 16;
  gmp.shared_cache_bytes = 64ull << 20;
  SimExecutor e2 = Gpu();
  MpTrainReport rm;
  ValueOrDie(GmpSvmTrainer(gmp).Train(data, &e2, &rm));
  EXPECT_LT(rm.sim_seconds, rg.sim_seconds);
}

TEST(OhdSvmLikeTest, BinaryOnly) {
  auto multi = ValueOrDie(MakeMulticlassBlobs(3, 10, 4, 2.0, 17));
  OhdSvmLikeOptions options;
  SimExecutor exec = Gpu();
  EXPECT_FALSE(OhdSvmLikeTrainer(options).Train(multi, &exec, nullptr).ok());
}

TEST(OhdSvmLikeTest, SolvesBinaryProblemCorrectly) {
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 40, 5, 2.5, 19));
  OhdSvmLikeOptions options;
  options.c = 1.0;
  options.kernel = Gaussian(0.3);
  SimExecutor exec = Gpu();
  SolverStats stats;
  auto solution = ValueOrDie(OhdSvmLikeTrainer(options).Train(data, &exec, &stats));
  EXPECT_GT(stats.iterations, 0);

  // Same objective as the reference solver.
  SimExecutor ref_exec = Gpu();
  KernelComputer kc(&data.features(), Gaussian(0.3));
  BinaryProblem p = data.MakePairProblem(0, 1, 1.0, Gaussian(0.3));
  auto ref = ValueOrDie(
      SmoSolver(SmoOptions{}).Solve(p, kc, &ref_exec, kDefaultStream, nullptr));
  EXPECT_NEAR(solution.objective, ref.objective,
              1e-2 * (1.0 + std::abs(ref.objective)));
}

TEST(LibsvmRefTest, RejectsInvalidEpsAtOnce) {
  // The stop test never holds for eps <= 0 or NaN, so each pair would run
  // to max_iterations; the options check refuses such an eps up front.
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 20, 4, 1.5, 19, 1.5));
  for (double eps : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    SimExecutor cpu(ExecutorModel::XeonCpu(1));
    auto result = LibsvmRefTrainer(1.0, Gaussian(0.5), eps)
                      .Train(data, &cpu, nullptr);
    ASSERT_FALSE(result.ok()) << eps;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << eps;
    EXPECT_NE(result.status().message().find("smo.eps"), std::string::npos)
        << result.status().message();
  }
}

TEST(GpuSvmLikeTest, BinaryOnly) {
  auto multi = ValueOrDie(MakeMulticlassBlobs(3, 10, 4, 2.0, 23));
  GpuSvmLikeOptions options;
  SimExecutor exec = Gpu();
  EXPECT_FALSE(GpuSvmLikeTrainer(options).Train(multi, &exec, nullptr).ok());
}

TEST(GpuSvmLikeTest, MatchesReferenceObjective) {
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 40, 5, 2.0, 29));
  GpuSvmLikeOptions options;
  options.c = 1.0;
  options.kernel = Gaussian(0.3);
  SimExecutor exec = Gpu();
  SolverStats stats;
  auto solution = ValueOrDie(GpuSvmLikeTrainer(options).Train(data, &exec, &stats));

  SimExecutor ref_exec = Gpu();
  KernelComputer kc(&data.features(), Gaussian(0.3));
  BinaryProblem p = data.MakePairProblem(0, 1, 1.0, Gaussian(0.3));
  auto ref = ValueOrDie(
      SmoSolver(SmoOptions{}).Solve(p, kc, &ref_exec, kDefaultStream, nullptr));
  EXPECT_NEAR(solution.objective, ref.objective,
              2e-2 * (1.0 + std::abs(ref.objective)));
  EXPECT_NEAR(solution.bias, ref.bias, 0.1);
}

TEST(GpuSvmLikeTest, OneRowCacheBudgetMatchesLargeCache) {
  // The step reads the rows of u and l together; a cache budget under two
  // rows still holds two, so the solution is the large-cache one bit for bit.
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 50, 4, 1.5, 19, 1.5));
  GpuSvmLikeOptions options;
  options.c = 1.0;
  options.kernel = Gaussian(0.5);
  options.cache_bytes = 64ull << 20;
  GpuSvmLikeOptions one_row = options;
  one_row.cache_bytes = 8;

  SimExecutor exec_large = Gpu();
  SolverStats stats_large;
  const BinarySolution want = ValueOrDie(
      GpuSvmLikeTrainer(options).Train(data, &exec_large, &stats_large));
  SimExecutor exec_one = Gpu();
  SolverStats stats_one;
  const BinarySolution got =
      ValueOrDie(GpuSvmLikeTrainer(one_row).Train(data, &exec_one, &stats_one));

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

TEST(GpuSvmLikeTest, DensePathCostsMoreOnSparseData) {
  // The Figure 10 mechanism: sparse, higher-dimensional data makes the dense
  // representation pay (flops scale with dim, not nnz).
  auto sparse_like = [&]() {
    // Build a sparse 2-class dataset: 200-dim, ~6% density.
    Rng rng(31);
    CsrBuilder b(200);
    std::vector<int32_t> labels;
    for (int i = 0; i < 80; ++i) {
      const int32_t cls = i % 2;
      std::vector<std::pair<int32_t, double>> entries;
      for (int32_t d = 0; d < 200; ++d) {
        if (rng.Bernoulli(0.06)) {
          entries.emplace_back(d, rng.Normal(cls == 0 ? 1.2 : -1.2, 1.0));
        }
      }
      if (entries.empty()) entries.emplace_back(0, 1.0);
      b.AddRowUnsorted(std::move(entries));
      labels.push_back(cls);
    }
    return ValueOrDie(Dataset::Create(ValueOrDie(b.Finish()), labels, 2, "sp"));
  }();

  GpuSvmLikeOptions options;
  options.c = 1.0;
  options.kernel = Gaussian(0.1);
  SimExecutor dense_exec = Gpu();
  ValueOrDie(GpuSvmLikeTrainer(options).Train(sparse_like, &dense_exec, nullptr));

  SimExecutor sparse_exec = Gpu();
  KernelComputer kc(&sparse_like.features(), Gaussian(0.1));
  BinaryProblem p = sparse_like.MakePairProblem(0, 1, 1.0, Gaussian(0.1));
  ValueOrDie(
      SmoSolver(SmoOptions{}).Solve(p, kc, &sparse_exec, kDefaultStream, nullptr));

  EXPECT_GT(dense_exec.counters().flops, sparse_exec.counters().flops);
}

}  // namespace
}  // namespace gmpsvm
