#include "sparse/ops.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace gmpsvm {
namespace {

CsrMatrix RandomSparse(int64_t rows, int64_t cols, double density, uint64_t seed) {
  Rng rng(seed);
  CsrBuilder b(cols);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<int32_t> idx;
    std::vector<double> val;
    for (int32_t c = 0; c < cols; ++c) {
      if (rng.Bernoulli(density)) {
        idx.push_back(c);
        val.push_back(rng.Normal());
      }
    }
    b.AddRow(idx, val);
  }
  return ValueOrDie(b.Finish());
}

double NaiveDot(const CsrMatrix& a, int64_t i, const CsrMatrix& bm, int64_t j) {
  auto da = a.ToDense();
  auto db = bm.ToDense();
  double dot = 0.0;
  for (int64_t c = 0; c < a.cols(); ++c) {
    dot += da[i * a.cols() + c] * db[j * bm.cols() + c];
  }
  return dot;
}

TEST(BatchRowDotsTest, MatchesNaiveDense) {
  CsrMatrix x = RandomSparse(20, 15, 0.3, 42);
  std::vector<int32_t> batch = {0, 5, 19};
  std::vector<int32_t> targets = {1, 2, 3, 10, 19};
  std::vector<double> out(batch.size() * targets.size());
  BatchRowDots(x, batch, targets, out.data());
  for (size_t bi = 0; bi < batch.size(); ++bi) {
    for (size_t tj = 0; tj < targets.size(); ++tj) {
      EXPECT_NEAR(out[bi * targets.size() + tj],
                  NaiveDot(x, batch[bi], x, targets[tj]), 1e-12)
          << "batch " << bi << " target " << tj;
    }
  }
}

TEST(BatchRowDotsTest, StatsReflectWork) {
  CsrMatrix x = RandomSparse(10, 8, 0.5, 7);
  std::vector<int32_t> batch = {0, 1};
  std::vector<int32_t> targets = {2, 3, 4};
  std::vector<double> out(6);
  OpStats stats = BatchRowDots(x, batch, targets, out.data());
  // 2 flops per streamed nonzero of each target row, per batch row.
  double nnz_targets = 0;
  for (int32_t t : targets) nnz_targets += static_cast<double>(x.RowNnz(t));
  EXPECT_DOUBLE_EQ(stats.flops, 2.0 * 2.0 * nnz_targets);
  EXPECT_GT(stats.bytes_read, 0.0);
  EXPECT_DOUBLE_EQ(stats.bytes_written, 6.0 * sizeof(double));
}

TEST(BatchRowDotsTest, EmptyBatch) {
  CsrMatrix x = RandomSparse(5, 5, 0.5, 3);
  std::vector<double> out;
  OpStats stats = BatchRowDots(x, {}, {}, out.data());
  EXPECT_DOUBLE_EQ(stats.flops, 0.0);
}

TEST(BatchRowDots2Test, CrossMatrixMatchesNaive) {
  CsrMatrix a = RandomSparse(8, 12, 0.4, 1);
  CsrMatrix b = RandomSparse(10, 12, 0.4, 2);
  std::vector<int32_t> batch = {0, 7};
  std::vector<int32_t> targets = {0, 4, 9};
  std::vector<double> out(6);
  BatchRowDots2(a, batch, b, targets, out.data());
  for (size_t bi = 0; bi < batch.size(); ++bi) {
    for (size_t tj = 0; tj < targets.size(); ++tj) {
      EXPECT_NEAR(out[bi * targets.size() + tj],
                  NaiveDot(a, batch[bi], b, targets[tj]), 1e-12);
    }
  }
}

TEST(DenseBatchRowDotsTest, MatchesSparsePath) {
  CsrMatrix x = RandomSparse(12, 9, 0.5, 11);
  DenseMatrix d(x.rows(), x.cols(), x.ToDense());
  std::vector<int32_t> batch = {0, 3, 11};
  std::vector<int32_t> targets = {1, 2, 3, 4};
  std::vector<double> sparse_out(12), dense_out(12);
  BatchRowDots(x, batch, targets, sparse_out.data());
  DenseBatchRowDots(d, batch, targets, dense_out.data());
  for (size_t i = 0; i < sparse_out.size(); ++i) {
    EXPECT_NEAR(sparse_out[i], dense_out[i], 1e-12);
  }
}

TEST(DenseBatchRowDotsTest, DenseCostsMoreFlopsOnSparseData) {
  // The representational point behind Figure 10: on sparse data the dense
  // path performs ~1/density times more arithmetic.
  CsrMatrix x = RandomSparse(30, 200, 0.05, 21);
  DenseMatrix d(x.rows(), x.cols(), x.ToDense());
  std::vector<int32_t> batch = {0, 1, 2};
  std::vector<int32_t> targets;
  for (int32_t t = 3; t < 30; ++t) targets.push_back(t);
  std::vector<double> out(batch.size() * targets.size());
  OpStats sparse_stats = BatchRowDots(x, batch, targets, out.data());
  OpStats dense_stats = DenseBatchRowDots(d, batch, targets, out.data());
  EXPECT_GT(dense_stats.flops, 5.0 * sparse_stats.flops);
}

TEST(SpMVTest, MatchesNaive) {
  CsrMatrix x = RandomSparse(10, 6, 0.5, 9);
  std::vector<double> v = {1, -1, 2, 0.5, 0, 3};
  std::vector<int32_t> rows = {0, 4, 9};
  std::vector<double> out(3);
  SpMV(x, rows, v, out.data());
  auto dense = x.ToDense();
  for (size_t j = 0; j < rows.size(); ++j) {
    double expect = 0.0;
    for (int64_t c = 0; c < x.cols(); ++c) {
      expect += dense[rows[j] * x.cols() + c] * v[static_cast<size_t>(c)];
    }
    EXPECT_NEAR(out[j], expect, 1e-12);
  }
}

TEST(ParallelOpsTest, PoolDoesNotChangeResultsOrStats) {
  // Every op routed through a ThreadPool must return bitwise-identical
  // outputs AND bitwise-identical OpStats: per-row flop accounting is summed
  // in serial row order regardless of which thread computed the row.
  CsrMatrix x = RandomSparse(120, 64, 0.2, 21);
  CsrMatrix b = RandomSparse(80, 64, 0.15, 22);
  std::vector<int32_t> batch, targets, brows;
  for (int32_t i = 0; i < 120; i += 3) batch.push_back(i);
  for (int32_t i = 0; i < 120; i += 2) targets.push_back(i);
  for (int32_t i = 0; i < 80; i += 2) brows.push_back(i);
  ThreadPool pool(4);

  {
    std::vector<double> serial(batch.size() * targets.size());
    std::vector<double> parallel(serial.size(), -1.0);
    OpStats s = BatchRowDots(x, batch, targets, serial.data());
    OpStats p = BatchRowDots(x, batch, targets, parallel.data(), &pool);
    EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(double)));
    EXPECT_EQ(s.flops, p.flops);
    EXPECT_EQ(s.bytes_read, p.bytes_read);
    EXPECT_EQ(s.bytes_written, p.bytes_written);
  }
  {
    std::vector<double> serial(batch.size() * brows.size());
    std::vector<double> parallel(serial.size(), -1.0);
    OpStats s = BatchRowDots2(x, batch, b, brows, serial.data());
    OpStats p = BatchRowDots2(x, batch, b, brows, parallel.data(), &pool);
    EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(double)));
    EXPECT_EQ(s.flops, p.flops);
    EXPECT_EQ(s.bytes_read, p.bytes_read);
    EXPECT_EQ(s.bytes_written, p.bytes_written);
  }
  {
    std::vector<double> v(static_cast<size_t>(x.cols()));
    for (size_t i = 0; i < v.size(); ++i) v[i] = 0.25 * static_cast<double>(i) - 3.0;
    std::vector<double> serial(batch.size());
    std::vector<double> parallel(serial.size(), -1.0);
    OpStats s = SpMV(x, batch, v, serial.data());
    OpStats p = SpMV(x, batch, v, parallel.data(), &pool);
    EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(double)));
    EXPECT_EQ(s.flops, p.flops);
  }
  {
    DenseMatrix dense(x.rows(), x.cols(), x.ToDense());
    std::vector<double> serial(batch.size() * targets.size());
    std::vector<double> parallel(serial.size(), -1.0);
    OpStats s = DenseBatchRowDots(dense, batch, targets, serial.data());
    OpStats p = DenseBatchRowDots(dense, batch, targets, parallel.data(), &pool);
    EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(double)));
    EXPECT_EQ(s.flops, p.flops);
  }
}

TEST(ParallelOpsTest, OpStatsBitwiseIdenticalAcrossPoolSizes) {
  // Satellite check for the SIMD tier: aggregated OpStats (and outputs) must
  // be byte-identical for pool sizes {0, 1, 4} — no pool, a degenerate pool
  // that runs serial, and a real 4-thread pool — on BatchRowDots and SpMV.
  CsrMatrix x = RandomSparse(90, 48, 0.25, 33);
  std::vector<int32_t> batch, targets;
  for (int32_t i = 0; i < 90; i += 2) batch.push_back(i);
  for (int32_t i = 0; i < 90; i += 3) targets.push_back(i);
  std::vector<double> vec(static_cast<size_t>(x.cols()));
  for (size_t i = 0; i < vec.size(); ++i) {
    vec[i] = 0.5 * static_cast<double>(i % 7) - 1.5;
  }

  ThreadPool pool1(1);
  ThreadPool pool4(4);
  ThreadPool* const pools[] = {nullptr, &pool1, &pool4};

  std::vector<std::vector<double>> dots_out;
  std::vector<OpStats> dots_stats;
  std::vector<std::vector<double>> spmv_out;
  std::vector<OpStats> spmv_stats;
  for (ThreadPool* pool : pools) {
    dots_out.emplace_back(batch.size() * targets.size(), -7.0);
    dots_stats.push_back(BatchRowDots(x, batch, targets,
                                      dots_out.back().data(), pool));
    spmv_out.emplace_back(batch.size(), -7.0);
    spmv_stats.push_back(SpMV(x, batch, vec, spmv_out.back().data(), pool));
  }
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(0, std::memcmp(dots_out[0].data(), dots_out[i].data(),
                             dots_out[0].size() * sizeof(double)))
        << "BatchRowDots output, pool variant " << i;
    EXPECT_EQ(dots_stats[0].flops, dots_stats[i].flops);
    EXPECT_EQ(dots_stats[0].bytes_read, dots_stats[i].bytes_read);
    EXPECT_EQ(dots_stats[0].bytes_written, dots_stats[i].bytes_written);
    EXPECT_EQ(0, std::memcmp(spmv_out[0].data(), spmv_out[i].data(),
                             spmv_out[0].size() * sizeof(double)))
        << "SpMV output, pool variant " << i;
    EXPECT_EQ(spmv_stats[0].flops, spmv_stats[i].flops);
    EXPECT_EQ(spmv_stats[0].bytes_read, spmv_stats[i].bytes_read);
    EXPECT_EQ(spmv_stats[0].bytes_written, spmv_stats[i].bytes_written);
  }
}

TEST(ScatterRowDotsTest, StatsMatchSingleRowBatch) {
  // ScatterRowDots must report the same OpStats as a one-row BatchRowDots2
  // over the same targets: flops = 2*nnz of the touched target rows,
  // bytes_read covering both the scattered row and the target rows.
  CsrMatrix a = RandomSparse(20, 40, 0.3, 44);
  CsrMatrix b = RandomSparse(30, 40, 0.2, 45);
  std::vector<int32_t> targets;
  for (int32_t i = 0; i < 30; i += 2) targets.push_back(i);
  const std::vector<int32_t> batch = {7};

  std::vector<double> scatter(targets.size(), -1.0);
  std::vector<double> batched(targets.size(), -2.0);
  OpStats s = ScatterRowDots(a, 7, b, targets, scatter.data());
  OpStats t = BatchRowDots2(a, batch, b, targets, batched.data());
  EXPECT_EQ(0, std::memcmp(scatter.data(), batched.data(),
                           scatter.size() * sizeof(double)));
  EXPECT_EQ(s.flops, t.flops);
  EXPECT_EQ(s.bytes_read, t.bytes_read);
  EXPECT_EQ(s.bytes_written, t.bytes_written);
  EXPECT_GT(s.flops, 0.0);
}

TEST(BatchRowDotsTest, PanelsMatchSingleRowDotsAtEveryBatchSize) {
  // Batch rows run in register-blocked panels of simd::kPanelRows. Every
  // batch size — empty, a partial panel, whole panels, whole plus partial —
  // must give, per entry, the bits of the single-row ScatterRowDots, on
  // every tier and pool size. The fixture has empty rows and a batch that
  // repeats a row inside one panel.
  const CsrMatrix dense_a = RandomSparse(40, 70, 0.3, 51);
  const CsrMatrix b = RandomSparse(25, 70, 0.25, 52);
  // The same rows with row 0 emptied.
  CsrBuilder a_builder(dense_a.cols());
  a_builder.AddRow({}, {});
  for (int64_t r = 1; r < dense_a.rows(); ++r) {
    a_builder.AddRow(dense_a.RowIndices(r), dense_a.RowValues(r));
  }
  const CsrMatrix a = ValueOrDie(a_builder.Finish());
  const std::vector<int32_t> pick = {0, 9, 9, 17, 3, 39, 22, 5, 11, 30, 1};
  std::vector<int32_t> targets;
  for (int32_t i = 0; i < 25; ++i) targets.push_back(i);

  std::vector<simd::SimdTier> tiers = {simd::SimdTier::kScalar};
  if (simd::TierSupported(simd::SimdTier::kAvx2)) {
    tiers.push_back(simd::SimdTier::kAvx2);
  }
  if (simd::TierSupported(simd::SimdTier::kNeon)) {
    tiers.push_back(simd::SimdTier::kNeon);
  }
  ThreadPool pool(4);
  for (size_t size = 0; size <= pick.size(); ++size) {
    const std::vector<int32_t> batch(pick.begin(),
                                     pick.begin() + static_cast<int64_t>(size));
    for (simd::SimdTier tier : tiers) {
      const simd::SimdOps& ops = simd::OpsFor(tier);
      std::vector<double> want(batch.size() * targets.size());
      for (size_t bi = 0; bi < batch.size(); ++bi) {
        ScatterRowDots(a, batch[bi], b, targets,
                       want.data() + bi * targets.size(), &ops);
      }
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        std::vector<double> got(want.size(), -9.0);
        BatchRowDots2(a, batch, b, targets, got.data(), p, &ops);
        EXPECT_TRUE(want.empty() || std::memcmp(want.data(), got.data(),
                                                want.size() * sizeof(double)) == 0)
            << ops.name << " batch size " << size << " pool " << (p != nullptr);
      }
    }
  }
}

TEST(OpStatsTest, Accumulates) {
  OpStats a{10, 20, 30};
  OpStats b{1, 2, 3};
  a += b;
  EXPECT_DOUBLE_EQ(a.flops, 11);
  EXPECT_DOUBLE_EQ(a.bytes_read, 22);
  EXPECT_DOUBLE_EQ(a.bytes_written, 33);
}

}  // namespace
}  // namespace gmpsvm
