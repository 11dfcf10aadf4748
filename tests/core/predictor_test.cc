#include "core/predictor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include "../simd_tier_guard.h"
#include "../test_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/mp_trainer.h"
#include "kernel/kernel_computer.h"
#include "metrics/metrics.h"
#include "simd/simd.h"

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

TrainedFixture MakeFixture(int k, uint64_t seed, double separation = 2.5) {
  TrainedFixture fx{
      ValueOrDie(MakeMulticlassBlobs(k, 30, 6, separation, seed)),
      ValueOrDie(MakeMulticlassBlobs(k, 10, 6, separation, seed + 1000)),
      MpSvmModel{},
  };
  SimExecutor exec = Gpu();
  fx.model = ValueOrDie(GmpSvmTrainer(SmallGmpOptions()).Train(fx.train, &exec,
                                                               nullptr));
  return fx;
}

TEST(MpSvmPredictorTest, ProbabilitiesAreDistributions) {
  TrainedFixture fx = MakeFixture(4, 42);
  SimExecutor exec = Gpu();
  auto result = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &exec, PredictOptions{}));
  ASSERT_EQ(result.num_instances, fx.test.size());
  for (int64_t i = 0; i < result.num_instances; ++i) {
    double sum = 0.0;
    for (int c = 0; c < 4; ++c) {
      const double p = result.Probability(i, c);
      EXPECT_GE(p, -1e-12);
      EXPECT_LE(p, 1.0 + 1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(MpSvmPredictorTest, LabelsAreArgmax) {
  TrainedFixture fx = MakeFixture(3, 7);
  SimExecutor exec = Gpu();
  auto result = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &exec, PredictOptions{}));
  for (int64_t i = 0; i < result.num_instances; ++i) {
    int best = 0;
    for (int c = 1; c < 3; ++c) {
      if (result.Probability(i, c) > result.Probability(i, best)) best = c;
    }
    EXPECT_EQ(result.labels[static_cast<size_t>(i)], best);
  }
}

TEST(MpSvmPredictorTest, SeparableDataPredictsAccurately) {
  TrainedFixture fx = MakeFixture(4, 11, /*separation=*/4.0);
  SimExecutor exec = Gpu();
  auto result = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &exec, PredictOptions{}));
  const double err = ValueOrDie(ErrorRate(result.labels, fx.test.labels()));
  EXPECT_LT(err, 0.1);
}

TEST(MpSvmPredictorTest, SharedAndPerSvmPathsAgree) {
  TrainedFixture fx = MakeFixture(4, 13);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  PredictOptions shared;
  shared.share_kernel_values = true;
  PredictOptions per_svm;
  per_svm.share_kernel_values = false;
  per_svm.max_concurrent_svms = 1;
  auto rs = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1, shared));
  auto rp = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e2, per_svm));
  ASSERT_EQ(rs.probabilities.size(), rp.probabilities.size());
  for (size_t i = 0; i < rs.probabilities.size(); ++i) {
    EXPECT_NEAR(rs.probabilities[i], rp.probabilities[i], 1e-9);
  }
  EXPECT_EQ(rs.labels, rp.labels);
}

TEST(MpSvmPredictorTest, SharingComputesFewerKernelValues) {
  TrainedFixture fx = MakeFixture(5, 17);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  PredictOptions shared;
  PredictOptions per_svm;
  per_svm.share_kernel_values = false;
  per_svm.max_concurrent_svms = 1;
  ValueOrDie(MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1, shared));
  ValueOrDie(MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e2, per_svm));
  EXPECT_LT(e1.counters().kernel_values_computed,
            e2.counters().kernel_values_computed);
  // And it is faster in simulated time (the Figure 5 multi-class effect).
  EXPECT_LT(e1.NowSeconds(), e2.NowSeconds());
}

TEST(MpSvmPredictorTest, TilingDoesNotChangeResults) {
  TrainedFixture fx = MakeFixture(3, 19);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  PredictOptions one_tile;
  one_tile.tile_rows = fx.test.size();
  PredictOptions tiny_tiles;
  tiny_tiles.tile_rows = 3;
  auto r1 = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1, one_tile));
  auto r2 = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e2, tiny_tiles));
  // Rows are predicted independently, so tiling is byte-neutral.
  ASSERT_EQ(r1.probabilities.size(), r2.probabilities.size());
  EXPECT_EQ(0, std::memcmp(r1.probabilities.data(), r2.probabilities.data(),
                           r1.probabilities.size() * sizeof(double)));
  EXPECT_EQ(r1.labels, r2.labels);
}

// Tile sizes that split the 30- and 50-row test sets into every mix of 16-,
// 8- and 4-row panels, partial 4-row panels and lone rows (0 sizes the tile
// from the memory budget: one tile).
constexpr int64_t kTiles[] = {0, 1, 3, 4, 5, 8, 9, 15, 16, 17, 33, 50};

// Independent per-row reference built from public pieces: the tile x pool
// kernel block, each pair's gather-dot, its sigmoid, and one coupling solve
// per row — all on the scalar tier, the canonical arithmetic.
struct NaiveReference {
  std::vector<double> probabilities;
  std::vector<int32_t> labels;
};

NaiveReference NaivePredict(const MpSvmModel& model, const CsrMatrix& test) {
  const testing::ScopedSimdTier scalar(simd::SimdTier::kScalar);
  const int k = model.num_classes;
  const int64_t n = test.rows();
  const int64_t pool = model.pool_size();
  KernelComputer computer(&test, &model.support_vectors, model.kernel);
  const simd::SimdOps& ops = simd::OpsFor(simd::SimdTier::kScalar);
  std::vector<int32_t> rows(static_cast<size_t>(n)), cols(static_cast<size_t>(pool));
  std::iota(rows.begin(), rows.end(), 0);
  std::iota(cols.begin(), cols.end(), 0);
  std::vector<double> block(static_cast<size_t>(n * pool));
  SimExecutor scratch = Gpu();
  computer.ComputeBlock(rows, cols, &scratch, kDefaultStream, block.data());

  const CouplingOptions coupling;
  NaiveReference ref;
  for (int64_t i = 0; i < n; ++i) {
    std::vector<double> r(static_cast<size_t>(k) * k, 0.0);
    for (const BinarySvmEntry& svm : model.svms) {
      double v = svm.bias;
      if (svm.num_svs() > 0) {
        v += ops.gather_dot(svm.sv_coef.data(), svm.sv_pool_index.data(),
                            svm.num_svs(), block.data() + i * pool);
      }
      const double prob_s = svm.sigmoid.Probability(v);
      r[static_cast<size_t>(svm.class_s) * k + svm.class_t] = prob_s;
      r[static_cast<size_t>(svm.class_t) * k + svm.class_s] = 1.0 - prob_s;
    }
    const std::vector<double> p = ValueOrDie(CoupleProbabilities(r, k, coupling));
    ref.probabilities.insert(ref.probabilities.end(), p.begin(), p.end());
    ref.labels.push_back(
        static_cast<int32_t>(std::max_element(p.begin(), p.end()) - p.begin()));
  }
  return ref;
}

TEST(MpSvmPredictorTest, RowFusedMatchesNaiveReference) {
  TrainedFixture fx = MakeFixture(5, 83);
  ASSERT_EQ(fx.test.size(), 50);
  const NaiveReference ref = NaivePredict(fx.model, fx.test.features());
  for (simd::SimdTier tier : testing::SupportedTiers()) {
    const testing::ScopedSimdTier scope(tier);
    for (bool share : {true, false}) {
      // The tiles cover every panel width: 16-row panels, coupled in two
      // 8-lane groups, 8- and 4-row panels, a partial 4-row panel and lone
      // rows, coupled row by row, and mixes of them in one tile.
      for (int64_t tile : kTiles) {
        // Simulated time, phases and counters depend only on sizes: they
        // must not move with the host thread count.
        std::optional<PredictResult> serial;
        ExecutorCounters serial_counters;
        for (int threads : {1, 4}) {
          const std::string what =
              StrPrintf("tier=%s share=%d tile=%lld threads=%d",
                        simd::TierName(tier), share,
                        static_cast<long long>(tile), threads);
          ExecutorModel device = ExecutorModel::TeslaP100();
          device.host_threads = threads;
          SimExecutor exec(device);
          PredictOptions options;
          options.share_kernel_values = share;
          options.tile_rows = tile;
          PredictResult result = ValueOrDie(
              MpSvmPredictor(&fx.model).Predict(fx.test.features(), &exec, options));
          ASSERT_EQ(result.probabilities.size(), ref.probabilities.size()) << what;
          EXPECT_EQ(0, std::memcmp(result.probabilities.data(),
                                   ref.probabilities.data(),
                                   ref.probabilities.size() * sizeof(double)))
              << what;
          EXPECT_EQ(result.labels, ref.labels) << what;
          if (!serial.has_value()) {
            serial = std::move(result);
            serial_counters = exec.counters();
            continue;
          }
          EXPECT_EQ(result.sim_seconds, serial->sim_seconds) << what;
          EXPECT_EQ(result.phases.phases(), serial->phases.phases()) << what;
          const ExecutorCounters& c = exec.counters();
          EXPECT_EQ(c.launches, serial_counters.launches) << what;
          EXPECT_EQ(c.flops, serial_counters.flops) << what;
          EXPECT_EQ(c.bytes_read, serial_counters.bytes_read) << what;
          EXPECT_EQ(c.bytes_written, serial_counters.bytes_written) << what;
          EXPECT_EQ(c.kernel_values_computed, serial_counters.kernel_values_computed)
              << what;
          EXPECT_EQ(c.kernel_values_reused, serial_counters.kernel_values_reused)
              << what;
        }
      }
    }
  }
}

TEST(MpSvmPredictorTest, WorkOfSeveralChunksSplitsBitwise) {
  // ParallelFor splits only calls worth two chunks of kMinChunkFlops, which
  // the small fixtures above never reach. Two overlapping classes give a
  // model with hundreds of SVs, so at 4 host threads an 800-row tile splits
  // the row pass, the per-SVM ablation's dots and the cascade's rows: every
  // output, phase and counter must be the 1-thread run's bits.
  const Dataset train = ValueOrDie(MakeMulticlassBlobs(2, 300, 6, 0.4, 97));
  const Dataset test = ValueOrDie(MakeMulticlassBlobs(2, 400, 6, 0.4, 1097));
  SimExecutor train_exec = Gpu();
  const MpSvmModel model = ValueOrDie(
      GmpSvmTrainer(SmallGmpOptions()).Train(train, &train_exec, nullptr));
  ASSERT_GE(2.0 * static_cast<double>(test.size() * model.svms[0].num_svs()),
            2.0 * kMinChunkFlops);
  for (bool share : {true, false}) {
    for (bool cascade : {false, true}) {
      const std::string what =
          StrPrintf("share=%d cascade=%d", share, cascade);
      PredictOptions options;
      options.share_kernel_values = share;
      options.tile_rows = test.size();
      if (cascade) options.cascade.mode = CascadeOptions::Mode::kEliminate;
      std::vector<PredictResult> results;
      std::vector<ExecutorCounters> counters;
      for (int threads : {1, 4}) {
        ExecutorModel device = ExecutorModel::TeslaP100();
        device.host_threads = threads;
        SimExecutor exec(device);
        results.push_back(ValueOrDie(
            MpSvmPredictor(&model).Predict(test.features(), &exec, options)));
        counters.push_back(exec.counters());
      }
      const PredictResult& one = results[0];
      const PredictResult& four = results[1];
      ASSERT_EQ(one.probabilities.size(), four.probabilities.size()) << what;
      EXPECT_EQ(0, std::memcmp(one.probabilities.data(),
                               four.probabilities.data(),
                               one.probabilities.size() * sizeof(double)))
          << what;
      EXPECT_EQ(one.labels, four.labels) << what;
      EXPECT_EQ(one.sim_seconds, four.sim_seconds) << what;
      EXPECT_EQ(one.phases.phases(), four.phases.phases()) << what;
      EXPECT_EQ(counters[0].launches, counters[1].launches) << what;
      EXPECT_EQ(counters[0].flops, counters[1].flops) << what;
      EXPECT_EQ(counters[0].bytes_read, counters[1].bytes_read) << what;
      EXPECT_EQ(counters[0].kernel_values_computed,
                counters[1].kernel_values_computed)
          << what;
    }
  }
}

// Each full panel coupled by Gaussian elimination takes its sigmoids in one
// platt_panel call over every pair per lane group of up to 8 rows: two
// calls for a 16-row panel, one for an 8- or 4-row panel. Lone rows,
// partial panels, the per-SVM ablation and the iterative method take them
// one value at a time and record nothing on the path.
TEST(MpSvmPredictorTest, PlattPathCountsOneCallPerFullPanel) {
  TrainedFixture fx = MakeFixture(5, 83);
  const int64_t n = fx.test.size();
  const int64_t pairs = fx.model.num_pairs();
  // Platt calls and rows of one tile: 16-row panels while 16 rows remain,
  // then at most one 8-row and one 4-row panel.
  const auto tile_platt = [](int64_t rows, int64_t* calls, int64_t* lanes) {
    for (; rows >= 16; rows -= 16) {
      *calls += 2;
      *lanes += 16;
    }
    for (const int64_t width : {int64_t{8}, int64_t{4}}) {
      if (rows < width) continue;
      *calls += 1;
      *lanes += width;
      rows -= width;
    }
  };
  for (simd::SimdTier tier : testing::SupportedTiers()) {
    const testing::ScopedSimdTier scope(tier);
    for (bool share : {true, false}) {
      for (bool iterative : {false, true}) {
        for (int64_t tile : {n, int64_t{6}, int64_t{12}}) {
          const simd::PathStatsSnapshot before =
              simd::PathStats(simd::SimdPath::kPlatt);
          SimExecutor exec = Gpu();
          PredictOptions options;
          options.share_kernel_values = share;
          options.tile_rows = tile;
          if (iterative) options.coupling.method = CouplingMethod::kIterative;
          ValueOrDie(MpSvmPredictor(&fx.model).Predict(fx.test.features(),
                                                       &exec, options));
          int64_t calls = 0;
          int64_t lanes = 0;
          if (share && !iterative) {
            for (int64_t first = 0; first < n; first += tile) {
              tile_platt(std::min(tile, n - first), &calls, &lanes);
            }
          }
          const simd::PathStatsSnapshot after =
              simd::PathStats(simd::SimdPath::kPlatt);
          const int64_t elements = after.elements - before.elements;
          const std::string what =
              StrPrintf("tier=%s share=%d iterative=%d tile=%lld",
                        simd::TierName(tier), share, iterative,
                        static_cast<long long>(tile));
          EXPECT_EQ(after.calls - before.calls, calls) << what;
          EXPECT_EQ(elements, lanes * pairs) << what;
          EXPECT_EQ(after.flops - before.flops,
                    10.0 * static_cast<double>(elements))
              << what;
        }
      }
    }
  }
}

TEST(MpSvmPredictorTest, FirstFailingRowStatusIsReturned) {
  // A NaN feature makes every pairwise estimate of its row NaN on every SIMD
  // tier, and the coupling solve rejects it. Rows 2, 5 and 13 fail; whatever
  // the tier, tiling, thread count or path, Predict returns row 2's status.
  // At tiles of 8 rows and more rows 2 and 5 are lanes of a full 8-lane
  // coupling solve, and from 16 rows row 13 is a lane of a 16-row panel's
  // second 8-lane group.
  TrainedFixture fx = MakeFixture(3, 89);
  const CsrMatrix& clean = fx.test.features();
  CsrBuilder builder(clean.cols());
  for (int64_t i = 0; i < clean.rows(); ++i) {
    std::vector<double> values(clean.RowValues(i).begin(), clean.RowValues(i).end());
    if (i == 2 || i == 5 || i == 13) values[0] = std::nan("");
    builder.AddRow(clean.RowIndices(i), values);
  }
  const CsrMatrix poisoned = ValueOrDie(builder.Finish());
  for (simd::SimdTier tier : testing::SupportedTiers()) {
    const testing::ScopedSimdTier scope(tier);
    for (int threads : {1, 4}) {
      for (int64_t tile : kTiles) {
        for (bool cascade : {false, true}) {
          const std::string what =
              StrPrintf("tier=%s threads=%d tile=%lld cascade=%d",
                        simd::TierName(tier), threads,
                        static_cast<long long>(tile), cascade);
          ExecutorModel device = ExecutorModel::TeslaP100();
          device.host_threads = threads;
          SimExecutor exec(device);
          PredictOptions options;
          options.tile_rows = tile;
          if (cascade) options.cascade.mode = CascadeOptions::Mode::kEliminate;
          auto result = MpSvmPredictor(&fx.model).Predict(poisoned, &exec, options);
          ASSERT_FALSE(result.ok()) << what;
          EXPECT_TRUE(result.status().IsInvalidArgument()) << what;
          EXPECT_EQ(result.status().message().rfind("row 2: ", 0), 0u)
              << what << ": " << result.status().ToString();
        }
      }
    }
  }
}

TEST(MpSvmPredictorTest, PhaseBreakdownDominatedByDecisionValues) {
  TrainedFixture fx = MakeFixture(4, 23);
  SimExecutor exec = Gpu();
  auto result = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &exec, PredictOptions{}));
  // Figure 12's shape: decision values dominate; coupling is negligible.
  EXPECT_GT(result.phases.Get("decision_values"), result.phases.Get("coupling"));
  EXPECT_GT(result.phases.Get("decision_values"), 0.0);
  EXPECT_GT(result.phases.Get("sigmoid"), 0.0);
}

TEST(MpSvmPredictorTest, RejectsDimensionMismatch) {
  TrainedFixture fx = MakeFixture(3, 29);
  CsrBuilder b(99);
  b.AddRow(std::vector<int32_t>{0}, std::vector<double>{1.0});
  CsrMatrix bad = ValueOrDie(b.Finish());
  SimExecutor exec = Gpu();
  auto result = MpSvmPredictor(&fx.model).Predict(bad, &exec, PredictOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(MpSvmPredictorTest, EmptyTestSetYieldsEmptyResult) {
  TrainedFixture fx = MakeFixture(3, 31);
  CsrBuilder b(fx.test.dim());
  CsrMatrix empty = ValueOrDie(b.Finish());
  SimExecutor exec = Gpu();
  auto result =
      ValueOrDie(MpSvmPredictor(&fx.model).Predict(empty, &exec, PredictOptions{}));
  EXPECT_EQ(result.num_instances, 0);
  EXPECT_TRUE(result.labels.empty());
}

TEST(MpSvmPredictorTest, DeterministicAcrossRuns) {
  TrainedFixture fx = MakeFixture(3, 37);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  auto r1 = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1, PredictOptions{}));
  auto r2 = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e2, PredictOptions{}));
  EXPECT_EQ(r1.probabilities, r2.probabilities);
  EXPECT_DOUBLE_EQ(r1.sim_seconds, r2.sim_seconds);
}

// --- Tiling / PredictRows edge cases exercised by the serving micro-batcher.

std::vector<SparseRowView> RowViews(const CsrMatrix& m) {
  std::vector<SparseRowView> rows;
  rows.reserve(static_cast<size_t>(m.rows()));
  for (int64_t i = 0; i < m.rows(); ++i) {
    rows.push_back(SparseRowView{m.RowIndices(i), m.RowValues(i)});
  }
  return rows;
}

TEST(MpSvmPredictorTest, PredictRowsMatchesPredictBitForBit) {
  TrainedFixture fx = MakeFixture(3, 43);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  auto direct = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1, PredictOptions{}));
  const auto rows = RowViews(fx.test.features());
  auto via_rows = ValueOrDie(
      MpSvmPredictor(&fx.model).PredictRows(rows, &e2, PredictOptions{}));
  EXPECT_EQ(direct.probabilities, via_rows.probabilities);
  EXPECT_EQ(direct.labels, via_rows.labels);
}

TEST(MpSvmPredictorTest, OneRowBatchesMatchFullBatchBitForBit) {
  TrainedFixture fx = MakeFixture(3, 47);
  SimExecutor e1 = Gpu();
  auto full = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1, PredictOptions{}));
  const auto rows = RowViews(fx.test.features());
  for (size_t i = 0; i < rows.size(); ++i) {
    SimExecutor e2 = Gpu();
    auto one = ValueOrDie(MpSvmPredictor(&fx.model)
                              .PredictRows({&rows[i], 1}, &e2, PredictOptions{}));
    ASSERT_EQ(one.num_instances, 1);
    for (int c = 0; c < 3; ++c) {
      // The per-row math must not depend on batch composition — this is
      // what lets the serving layer batch arbitrarily without changing
      // results.
      EXPECT_EQ(one.Probability(0, c), full.Probability(static_cast<int64_t>(i), c));
    }
    EXPECT_EQ(one.labels[0], full.labels[i]);
  }
}

TEST(MpSvmPredictorTest, TileBoundaryExactlyAtBatchSize) {
  TrainedFixture fx = MakeFixture(3, 53);
  const int64_t n = fx.test.size();
  // tile == n (single full tile), tile dividing n exactly, and tile = 1.
  for (int64_t tile : {n, n / 2, int64_t{1}}) {
    if (tile <= 0 || n % tile != 0) continue;
    SimExecutor e1 = Gpu(), e2 = Gpu();
    PredictOptions exact;
    exact.tile_rows = tile;
    auto r1 = ValueOrDie(
        MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1, exact));
    auto r2 = ValueOrDie(MpSvmPredictor(&fx.model)
                             .Predict(fx.test.features(), &e2, PredictOptions{}));
    EXPECT_EQ(r1.probabilities, r2.probabilities) << "tile_rows=" << tile;
    EXPECT_EQ(r1.labels, r2.labels);
  }
}

TEST(MpSvmPredictorTest, EmptyRequestSetYieldsEmptyResult) {
  TrainedFixture fx = MakeFixture(3, 59);
  SimExecutor exec = Gpu();
  auto result = ValueOrDie(MpSvmPredictor(&fx.model).PredictRows(
      {}, &exec, PredictOptions{}));
  EXPECT_EQ(result.num_instances, 0);
  EXPECT_TRUE(result.probabilities.empty());
  EXPECT_TRUE(result.labels.empty());
}

TEST(MpSvmPredictorTest, PredictRowsRejectsMismatchedRow) {
  TrainedFixture fx = MakeFixture(3, 61);
  SimExecutor exec = Gpu();
  const std::vector<int32_t> idx{0, 1};
  const std::vector<double> val{1.0};
  const SparseRowView bad{idx, val};
  auto result =
      MpSvmPredictor(&fx.model).PredictRows({&bad, 1}, &exec, PredictOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(MpSvmPredictorTest, PredictRowsRejectsNonFiniteFeatureNamingTheRow) {
  TrainedFixture fx = MakeFixture(3, 63);
  const std::vector<int32_t> idx{0, 1};
  const std::vector<double> good{0.5, 1.0};
  for (double bad_value : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const std::vector<double> bad{0.5, bad_value};
    const std::vector<SparseRowView> rows{{idx, good}, {idx, good}, {idx, bad}};
    SimExecutor exec = Gpu();
    auto result = MpSvmPredictor(&fx.model).PredictRows(rows, &exec, PredictOptions{});
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument());
    EXPECT_EQ(result.status().message().rfind("row 2:", 0), 0u)
        << result.status().ToString();
  }
}

// One row through PredictRows: the k probabilities of `test`'s row `row`.
std::vector<double> PredictOneRow(const MpSvmModel& model, const CsrMatrix& test,
                                  int64_t row, SimExecutor* executor,
                                  const PredictOptions& options) {
  const SparseRowView view{test.RowIndices(row), test.RowValues(row)};
  const PredictResult result =
      ValueOrDie(MpSvmPredictor(&model).PredictRows({&view, 1}, executor, options));
  return result.probabilities;
}

TEST(MpSvmPredictorTest, OneRowMatchesBatchRow) {
  TrainedFixture fx = MakeFixture(3, 67);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  PredictOptions sequential;
  sequential.max_concurrent_svms = 1;
  auto batch = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1, sequential));
  auto one = PredictOneRow(fx.model, fx.test.features(), 0, &e2, sequential);
  ASSERT_EQ(one.size(), 3u);
  for (int c = 0; c < 3; ++c) EXPECT_EQ(one[static_cast<size_t>(c)], batch.Probability(0, c));
}

TEST(MpSvmPredictorTest, OneRowCarriesCascadeOptions) {
  // A one-row call takes the whole options surface: a cascade call must
  // reproduce the cascade batch path's row exactly.
  TrainedFixture fx = MakeFixture(4, 71);
  SimExecutor e1 = Gpu(), e2 = Gpu();
  PredictOptions cascade;
  cascade.cascade.mode = CascadeOptions::Mode::kEliminate;
  cascade.cascade.ambiguity_band = 0.0;
  auto batch = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.test.features(), &e1, cascade));
  auto one = PredictOneRow(fx.model, fx.test.features(), 0, &e2, cascade);
  ASSERT_EQ(one.size(), 4u);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(one[static_cast<size_t>(c)], batch.Probability(0, c));
  }
}

TEST(MpSvmPredictorTest, ValidateRejectsBadOptions) {
  TrainedFixture fx = MakeFixture(3, 73);
  SimExecutor exec = Gpu();
  MpSvmPredictor predictor(&fx.model);
  PredictOptions bad;
  bad.max_concurrent_svms = 0;
  auto result = predictor.Predict(fx.test.features(), &exec, bad);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("max_concurrent_svms"),
            std::string::npos);
}

TEST(MpSvmPredictorTest, TrainingErrorLowOnSeparableData) {
  TrainedFixture fx = MakeFixture(4, 41, 4.0);
  SimExecutor exec = Gpu();
  auto result = ValueOrDie(
      MpSvmPredictor(&fx.model).Predict(fx.train.features(), &exec, PredictOptions{}));
  const double err = ValueOrDie(ErrorRate(result.labels, fx.train.labels()));
  EXPECT_LT(err, 0.05);
}

}  // namespace
}  // namespace gmpsvm
