// Tests for the extension features: voting prediction, cross-validation,
// the one-vs-all trainer, execution tracing and LRU buffer policy plumbing.

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "core/cross_validation.h"
#include "core/grid_search.h"
#include "core/mp_trainer.h"
#include "core/ova_trainer.h"
#include "core/predictor.h"
#include "core/sigmoid_cv.h"
#include "obs/span.h"
#include "metrics/metrics.h"
#include "common/rng.h"
#include "solver/batch_smo_solver.h"
#include "solver/smo_solver.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeBinaryBlobs;
using ::gmpsvm::testing::MakeMulticlassBlobs;
using ::gmpsvm::testing::MakeProblem;

KernelParams Gaussian(double gamma) {
  KernelParams p;
  p.gamma = gamma;
  return p;
}

MpTrainOptions SmallOptions() {
  MpTrainOptions options;
  options.c = 1.0;
  options.kernel = Gaussian(0.3);
  options.batch.working_set.ws_size = 32;
  options.batch.working_set.q = 16;
  options.shared_cache_bytes = 32ull << 20;
  return options;
}

SimExecutor Gpu() { return SimExecutor(ExecutorModel::TeslaP100()); }

TEST(VotingPredictionTest, AgreesWithProbabilityOnSeparableData) {
  auto data = ValueOrDie(MakeMulticlassBlobs(4, 30, 6, 3.5, 42));
  SimExecutor exec = Gpu();
  auto model = ValueOrDie(GmpSvmTrainer(SmallOptions()).Train(data, &exec, nullptr));
  MpSvmPredictor predictor(&model);

  PredictOptions prob_opts;
  PredictOptions vote_opts;
  vote_opts.decision = PredictOptions::Decision::kVoting;
  auto prob = ValueOrDie(predictor.Predict(data.features(), &exec, prob_opts));
  auto vote = ValueOrDie(predictor.Predict(data.features(), &exec, vote_opts));
  int disagreements = 0;
  for (size_t i = 0; i < prob.labels.size(); ++i) {
    if (prob.labels[i] != vote.labels[i]) ++disagreements;
  }
  // On cleanly separable data the two rules agree (almost) everywhere.
  EXPECT_LE(disagreements, static_cast<int>(prob.labels.size() / 50));
}

TEST(VotingPredictionTest, VoteFractionsSumToOne) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 20, 5, 2.0, 7));
  SimExecutor exec = Gpu();
  auto model = ValueOrDie(GmpSvmTrainer(SmallOptions()).Train(data, &exec, nullptr));
  PredictOptions opts;
  opts.decision = PredictOptions::Decision::kVoting;
  auto result =
      ValueOrDie(MpSvmPredictor(&model).Predict(data.features(), &exec, opts));
  for (int64_t i = 0; i < result.num_instances; ++i) {
    double sum = 0.0;
    for (int c = 0; c < 3; ++c) sum += result.Probability(i, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(CrossValidationTest, ReportsPooledMetrics) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 30, 5, 2.5, 11));
  CrossValidationOptions options;
  options.folds = 3;
  options.train = SmallOptions();
  SimExecutor exec = Gpu();
  auto cv = ValueOrDie(CrossValidate(data, options, &exec));
  EXPECT_EQ(cv.folds, 3);
  EXPECT_EQ(cv.fold_errors.size(), 3u);
  EXPECT_LT(cv.error_rate, 0.15);  // separable blobs
  EXPECT_GT(cv.log_loss, 0.0);
  EXPECT_LT(cv.brier_score, 0.5);
  EXPECT_GT(cv.sim_seconds, 0.0);
}

TEST(CrossValidationTest, HarderDataHasHigherCvError) {
  auto easy = ValueOrDie(MakeMulticlassBlobs(3, 30, 5, 3.0, 13));
  auto hard = ValueOrDie(MakeMulticlassBlobs(3, 30, 5, 0.5, 13));
  CrossValidationOptions options;
  options.folds = 3;
  options.train = SmallOptions();
  SimExecutor e1 = Gpu(), e2 = Gpu();
  auto cv_easy = ValueOrDie(CrossValidate(easy, options, &e1));
  auto cv_hard = ValueOrDie(CrossValidate(hard, options, &e2));
  EXPECT_LT(cv_easy.error_rate, cv_hard.error_rate);
}

TEST(CrossValidationTest, RejectsBadFolds) {
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 5, 3, 2.0, 17));
  CrossValidationOptions options;
  options.folds = 1;
  SimExecutor exec = Gpu();
  EXPECT_FALSE(CrossValidate(data, options, &exec).ok());
}

TEST(OvaTrainerTest, TrainsOneSvmPerClass) {
  auto data = ValueOrDie(MakeMulticlassBlobs(4, 25, 5, 2.5, 19));
  SimExecutor exec = Gpu();
  MpTrainReport report;
  auto model = ValueOrDie(OvaTrainer(SmallOptions()).Train(data, &exec, &report));
  EXPECT_EQ(model.classes.size(), 4u);
  EXPECT_GT(model.support_vectors.rows(), 0);
  EXPECT_GT(report.sim_seconds, 0.0);
  for (const auto& entry : model.classes) {
    EXPECT_GT(entry.sv_pool_index.size(), 0u);
  }
}

TEST(OvaTrainerTest, PredictsAccuratelyOnSeparableData) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 30, 5, 3.0, 23));
  auto test = ValueOrDie(MakeMulticlassBlobs(3, 10, 5, 3.0, 1023));
  SimExecutor exec = Gpu();
  auto model = ValueOrDie(OvaTrainer(SmallOptions()).Train(data, &exec, nullptr));
  auto pred = ValueOrDie(OvaPredict(model, test.features(), &exec));
  const double err = ValueOrDie(ErrorRate(pred.labels, test.labels()));
  EXPECT_LT(err, 0.15);
  for (int64_t i = 0; i < pred.num_instances; ++i) {
    double sum = 0.0;
    for (int c = 0; c < 3; ++c) sum += pred.Probability(i, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(OvaTrainerTest, ValidatesOptionsBeforeTouchingTheData) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 10, 4, 2.5, 31));
  for (const double c : {-1.0, 0.0, std::nan("")}) {
    MpTrainOptions options = SmallOptions();
    options.c = c;
    SimExecutor exec = Gpu();
    auto model = OvaTrainer(options).Train(data, &exec, nullptr);
    ASSERT_FALSE(model.ok()) << c;
    EXPECT_TRUE(model.status().IsInvalidArgument())
        << c << ": " << model.status().ToString();
    EXPECT_EQ(exec.counters().bytes_h2d, 0.0) << c;
    EXPECT_EQ(exec.NowSeconds(), 0.0) << c;
  }
}

TEST(OvaTrainerTest, OvaProblemsAreLargerThanPairwise) {
  // The structural cost difference: each OVA SVM sees all n instances.
  auto data = ValueOrDie(MakeMulticlassBlobs(5, 20, 5, 2.0, 29));
  SimExecutor e1 = Gpu(), e2 = Gpu();
  MpTrainReport ova_report, ovo_report;
  ValueOrDie(OvaTrainer(SmallOptions()).Train(data, &e1, &ova_report));
  ValueOrDie(GmpSvmTrainer(SmallOptions()).Train(data, &e2, &ovo_report));
  // 5 problems x 100 instances vs 10 problems x 40 instances: OVA does more
  // kernel work per problem.
  EXPECT_GT(e1.counters().kernel_values_computed / 5,
            e2.counters().kernel_values_computed / 10);
}

TEST(DeviceTraceTest, RecordsChargesAndTransfers) {
  SimExecutor exec = Gpu();
  obs::TraceRecorder trace;
  exec.SetSpanRecorder(&trace);
  TaskCost cost;
  cost.flops = 1e6;
  cost.parallel_items = 1000;
  exec.Charge(kDefaultStream, cost);
  exec.Transfer(kDefaultStream, 1e6, TransferDirection::kHostToDevice);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_FALSE(trace.events()[0].is_transfer);
  EXPECT_TRUE(trace.events()[1].is_transfer);
  EXPECT_DOUBLE_EQ(trace.events()[0].flops, 1e6);
  // Events tile the stream timeline.
  EXPECT_DOUBLE_EQ(trace.events()[0].end_seconds, trace.events()[1].start_seconds);
}

TEST(DeviceTraceTest, BusyTimeAndJsonExport) {
  SimExecutor exec = Gpu();
  obs::TraceRecorder trace;
  exec.SetSpanRecorder(&trace);
  StreamId s1 = exec.CreateStream(0.5);
  TaskCost cost;
  cost.flops = 1e7;
  cost.parallel_items = 100000;
  exec.Charge(kDefaultStream, cost);
  exec.Charge(s1, cost);
  auto busy = trace.BusyTimePerStream();
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_GT(busy[0], 0.0);
  EXPECT_GT(busy[1], 0.0);
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(DeviceTraceTest, TrainerProducesOverlappingStreams) {
  auto data = ValueOrDie(MakeMulticlassBlobs(4, 20, 5, 2.0, 31));
  SimExecutor exec = Gpu();
  obs::TraceRecorder trace;
  exec.SetSpanRecorder(&trace);
  MpTrainOptions options = SmallOptions();
  options.max_concurrent_svms = 6;
  ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));
  // Concurrent training used more than the default stream.
  int max_lane = 0;
  for (const auto& e : trace.events()) max_lane = std::max(max_lane, e.lane);
  EXPECT_GT(max_lane, 0);
}

TEST(LruBufferPolicyTest, SolverConvergesWithLru) {
  auto blobs = MakeBinaryBlobs(40, 4, 1.2, 43, /*noise=*/1.3);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.4));
  KernelComputer kc(p.data, p.kernel);
  BatchSmoOptions options;
  options.working_set.ws_size = 16;
  options.working_set.q = 8;
  options.buffer_policy = KernelBuffer::Policy::kLru;
  SimExecutor exec = Gpu();
  auto sol = ValueOrDie(
      BatchSmoSolver(options).Solve(p, kc, {&exec, kDefaultStream}, nullptr));
  EXPECT_LT(::gmpsvm::testing::MaxKktViolation(p, kc, sol.alpha), 2e-3);
}

TEST(ClassWeightsTest, RejectsWrongSize) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 10, 4, 2.0, 47));
  MpTrainOptions options = SmallOptions();
  options.class_weights = {1.0, 2.0};  // 2 weights for 3 classes
  SimExecutor exec = Gpu();
  EXPECT_FALSE(GmpSvmTrainer(options).Train(data, &exec, nullptr).ok());
}

TEST(ClassWeightsTest, BoxConstraintsRespectWeights) {
  auto blobs = MakeBinaryBlobs(40, 4, 0.6, 53, /*noise=*/1.8);  // overlapped
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.4));
  p.weight_pos = 3.0;  // C_+ = 3, C_- = 1
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec = Gpu();
  auto sol = ValueOrDie(
      SmoSolver(SmoOptions{}).Solve(p, kc, &exec, kDefaultStream, nullptr));
  bool pos_above_one = false;
  double sum_ya = 0.0;
  for (int64_t i = 0; i < p.n(); ++i) {
    const double a = sol.alpha[static_cast<size_t>(i)];
    const double bound = p.y[static_cast<size_t>(i)] > 0 ? 3.0 : 1.0;
    EXPECT_GE(a, -1e-12);
    EXPECT_LE(a, bound + 1e-12);
    if (p.y[static_cast<size_t>(i)] > 0 && a > 1.0 + 1e-9) pos_above_one = true;
    sum_ya += a * p.y[static_cast<size_t>(i)];
  }
  EXPECT_TRUE(pos_above_one);  // the larger box is actually used
  EXPECT_NEAR(sum_ya, 0.0, 1e-8);
}

TEST(ClassWeightsTest, UpweightingMinorityReducesItsErrors) {
  // Imbalanced binary data: 20 positives vs 120 negatives, overlapping.
  Rng rng(59);
  CsrBuilder b(6);
  std::vector<int32_t> labels;
  for (int i = 0; i < 140; ++i) {
    const bool minority = i < 20;
    std::vector<int32_t> idx(6);
    std::vector<double> val(6);
    for (int d = 0; d < 6; ++d) {
      idx[static_cast<size_t>(d)] = d;
      val[static_cast<size_t>(d)] = rng.Normal(minority ? 0.7 : -0.7, 1.4);
    }
    b.AddRow(idx, val);
    labels.push_back(minority ? 0 : 1);
  }
  auto data = ValueOrDie(Dataset::Create(ValueOrDie(b.Finish()), labels, 2, "imb"));

  auto minority_errors = [&](std::vector<double> weights) {
    MpTrainOptions options = SmallOptions();
    options.class_weights = std::move(weights);
    SimExecutor exec = Gpu();
    auto model = ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));
    auto pred = ValueOrDie(
        MpSvmPredictor(&model).Predict(data.features(), &exec, PredictOptions{}));
    int errors = 0;
    for (int32_t r : data.ClassRows(0)) {
      if (pred.labels[static_cast<size_t>(r)] != 0) ++errors;
    }
    return errors;
  };
  const int unweighted = minority_errors({});
  const int weighted = minority_errors({6.0, 1.0});
  EXPECT_LE(weighted, unweighted);
  EXPECT_GT(unweighted, 0);  // the imbalance actually bites without weights
}

TEST(ClassWeightsTest, BatchAndClassicSolversAgreeUnderWeights) {
  auto blobs = MakeBinaryBlobs(35, 4, 1.0, 61, /*noise=*/1.5);
  BinaryProblem p = MakeProblem(blobs, 2.0, Gaussian(0.3));
  p.weight_pos = 2.5;
  p.weight_neg = 0.5;
  KernelComputer kc(p.data, p.kernel);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  auto ref = ValueOrDie(
      SmoSolver(SmoOptions{}).Solve(p, kc, &e1, kDefaultStream, nullptr));
  BatchSmoOptions bopts;
  bopts.working_set.ws_size = 16;
  bopts.working_set.q = 8;
  auto batch = ValueOrDie(
      BatchSmoSolver(bopts).Solve(p, kc, {&e2, kDefaultStream}, nullptr));
  EXPECT_NEAR(batch.objective, ref.objective,
              1e-2 * (1.0 + std::abs(ref.objective)));
  EXPECT_NEAR(batch.bias, ref.bias, 5e-2);
}

TEST(SigmoidCvTest, CvDecisionValuesDifferFromTraining) {
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 40, 5, 1.2, 67));
  MpTrainOptions direct = SmallOptions();
  MpTrainOptions cv = SmallOptions();
  cv.sigmoid_cv_folds = 5;
  SimExecutor e1 = Gpu(), e2 = Gpu();
  auto m_direct = ValueOrDie(GmpSvmTrainer(direct).Train(data, &e1, nullptr));
  auto m_cv = ValueOrDie(GmpSvmTrainer(cv).Train(data, &e2, nullptr));
  // The SVM itself is identical; only the sigmoid differs.
  EXPECT_DOUBLE_EQ(m_direct.svms[0].bias, m_cv.svms[0].bias);
  EXPECT_EQ(m_direct.svms[0].sv_coef, m_cv.svms[0].sv_coef);
  EXPECT_NE(m_direct.svms[0].sigmoid.a, m_cv.svms[0].sigmoid.a);
  // CV costs extra training: more kernel values were computed.
  EXPECT_GT(e2.counters().kernel_values_computed,
            e1.counters().kernel_values_computed);
}

TEST(SigmoidCvTest, CvSigmoidLessOverconfidentOnNoisyData) {
  // With label noise and high C, training decision values are optimistic
  // (everything fitted); CV values are not, so the CV sigmoid is shallower.
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 60, 5, 0.8, 71, /*noise=*/1.6));
  MpTrainOptions direct = SmallOptions();
  direct.c = 50.0;
  MpTrainOptions cv = direct;
  cv.sigmoid_cv_folds = 5;
  SimExecutor e1 = Gpu(), e2 = Gpu();
  auto m_direct = ValueOrDie(GmpSvmTrainer(direct).Train(data, &e1, nullptr));
  auto m_cv = ValueOrDie(GmpSvmTrainer(cv).Train(data, &e2, nullptr));
  // Steeper sigmoid = more negative A = more confident.
  EXPECT_GT(m_cv.svms[0].sigmoid.a, m_direct.svms[0].sigmoid.a);
}

TEST(SigmoidCvTest, RejectsBadFoldCount) {
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 10, 4, 2.0, 73));
  KernelParams kernel = Gaussian(0.3);
  KernelComputer kc(&data.features(), kernel);
  BinaryProblem p = data.MakePairProblem(0, 1, 1.0, kernel);
  SimExecutor exec = Gpu();
  auto solve = [&](const BinaryProblem& sub, SimExecutor* e, StreamId s) {
    return SmoSolver(SmoOptions{}).Solve(sub, kc, e, s, nullptr);
  };
  EXPECT_FALSE(CrossValidatedDecisionValues(p, kc, solve, 1, 1, &exec,
                                            kDefaultStream)
                   .ok());
  EXPECT_FALSE(CrossValidatedDecisionValues(p, kc, solve, 1000, 1, &exec,
                                            kDefaultStream)
                   .ok());
}

TEST(GridSearchTest, FindsBestCellAndCoversGrid) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 25, 5, 1.0, 79));
  GridSearchOptions options;
  options.c_values = {0.1, 10.0};
  options.gamma_values = {0.05, 0.5};
  options.folds = 3;
  options.train = SmallOptions();
  SimExecutor exec = Gpu();
  auto grid = ValueOrDie(GridSearch(data, options, &exec));
  ASSERT_EQ(grid.cells.size(), 4u);
  double best_seen = 1.0;
  for (const auto& cell : grid.cells) {
    EXPECT_GE(cell.error_rate, 0.0);
    EXPECT_LE(cell.error_rate, 1.0);
    best_seen = std::min(best_seen, cell.error_rate);
  }
  EXPECT_DOUBLE_EQ(grid.best.error_rate, best_seen);
  EXPECT_GT(grid.sim_seconds, 0.0);
}

TEST(GridSearchTest, RejectsEmptyGrid) {
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 10, 4, 2.0, 83));
  GridSearchOptions options;
  options.c_values.clear();
  SimExecutor exec = Gpu();
  EXPECT_FALSE(GridSearch(data, options, &exec).ok());
}

TEST(OneRowPredictTest, MatchesBatchPrediction) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 25, 5, 2.5, 89));
  SimExecutor exec = Gpu();
  auto model = ValueOrDie(GmpSvmTrainer(SmallOptions()).Train(data, &exec, nullptr));
  MpSvmPredictor predictor(&model);
  auto batch = ValueOrDie(
      predictor.Predict(data.features(), &exec, PredictOptions{}));

  for (int64_t row : {int64_t{0}, data.size() / 2, data.size() - 1}) {
    const SparseRowView view{data.features().RowIndices(row),
                             data.features().RowValues(row)};
    auto p = ValueOrDie(predictor.PredictRows({&view, 1}, &exec, PredictOptions{}))
                 .probabilities;
    ASSERT_EQ(p.size(), 3u);
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(p[static_cast<size_t>(c)], batch.Probability(row, c), 1e-9);
    }
  }
}

TEST(OneRowPredictTest, RejectsMismatchedSpans) {
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 10, 4, 2.0, 97));
  SimExecutor exec = Gpu();
  auto model = ValueOrDie(GmpSvmTrainer(SmallOptions()).Train(data, &exec, nullptr));
  std::vector<int32_t> idx = {0, 1};
  std::vector<double> val = {1.0};
  const SparseRowView view{idx, val};
  EXPECT_FALSE(
      MpSvmPredictor(&model).PredictRows({&view, 1}, &exec, PredictOptions{}).ok());
}

}  // namespace
}  // namespace gmpsvm
