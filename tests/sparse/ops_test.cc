#include "sparse/ops.h"

#include <gtest/gtest.h>

#include <cstring>

#include "../simd_tier_guard.h"
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
  BatchRowDots2(x, batch, x, targets, out.data());
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
  OpStats stats = BatchRowDots2(x, batch, x, targets, out.data());
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
  OpStats stats = BatchRowDots2(x, {}, x, {}, out.data());
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
  BatchRowDots2(x, batch, x, targets, sparse_out.data());
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
  OpStats sparse_stats = BatchRowDots2(x, batch, x, targets, out.data());
  OpStats dense_stats = DenseBatchRowDots(d, batch, targets, out.data());
  EXPECT_GT(dense_stats.flops, 5.0 * sparse_stats.flops);
}

TEST(ParallelOpsTest, PoolDoesNotChangeResultsOrStats) {
  // Every op routed through a ThreadPool must return bitwise-identical
  // outputs AND bitwise-identical OpStats: the accounting is a closed form
  // of the op's sizes, whichever thread computed each row.
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
    OpStats s = BatchRowDots2(x, batch, x, targets, serial.data());
    OpStats p = BatchRowDots2(x, batch, x, targets, parallel.data(), &pool);
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
  // that runs serial, and a real 4-thread pool — on BatchRowDots.
  CsrMatrix x = RandomSparse(90, 48, 0.25, 33);
  std::vector<int32_t> batch, targets;
  for (int32_t i = 0; i < 90; i += 2) batch.push_back(i);
  for (int32_t i = 0; i < 90; i += 3) targets.push_back(i);

  ThreadPool pool1(1);
  ThreadPool pool4(4);
  ThreadPool* const pools[] = {nullptr, &pool1, &pool4};

  std::vector<std::vector<double>> dots_out;
  std::vector<OpStats> dots_stats;
  for (ThreadPool* pool : pools) {
    dots_out.emplace_back(batch.size() * targets.size(), -7.0);
    dots_stats.push_back(BatchRowDots2(x, batch, x, targets,
                                       dots_out.back().data(), pool));
  }
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(0, std::memcmp(dots_out[0].data(), dots_out[i].data(),
                             dots_out[0].size() * sizeof(double)))
        << "BatchRowDots output, pool variant " << i;
    EXPECT_EQ(dots_stats[0].flops, dots_stats[i].flops);
    EXPECT_EQ(dots_stats[0].bytes_read, dots_stats[i].bytes_read);
    EXPECT_EQ(dots_stats[0].bytes_written, dots_stats[i].bytes_written);
  }
}

TEST(ParallelOpsTest, OpsWorthSeveralChunksSplitBitwise) {
  // ParallelFor runs the small ops above inline even on a 4-thread pool.
  // These are worth several chunks of kMinChunkFlops, so the pool splits
  // them; outputs and OpStats must still be the serial bits.
  CsrMatrix x = RandomSparse(400, 256, 0.25, 57);
  std::vector<int32_t> batch, targets;
  for (int32_t i = 0; i < 61; ++i) batch.push_back((i * 7) % 400);
  for (int32_t i = 0; i < 400; ++i) targets.push_back(i);
  ThreadPool pool(4);
  {
    std::vector<double> serial(batch.size() * targets.size());
    std::vector<double> parallel(serial.size(), -1.0);
    const OpStats s = BatchRowDots2(x, batch, x, targets, serial.data());
    ASSERT_GE(s.flops, 4.0 * kMinChunkFlops);
    const OpStats p =
        BatchRowDots2(x, batch, x, targets, parallel.data(), &pool);
    EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(double)));
    EXPECT_EQ(s.flops, p.flops);
    EXPECT_EQ(s.bytes_read, p.bytes_read);
    EXPECT_EQ(s.bytes_written, p.bytes_written);
  }
  {
    DenseMatrix dense(x.rows(), x.cols(), x.ToDense());
    std::vector<double> serial(batch.size() * targets.size());
    std::vector<double> parallel(serial.size(), -1.0);
    const OpStats s = DenseBatchRowDots(dense, batch, targets, serial.data());
    ASSERT_GE(s.flops, 4.0 * kMinChunkFlops);
    const OpStats p =
        DenseBatchRowDots(dense, batch, targets, parallel.data(), &pool);
    EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(double)));
    EXPECT_EQ(s.flops, p.flops);
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

// For every prefix of `pick` as the batch, on every tier and pool size, each
// BatchRowDots2 entry must be bitwise the single-row ScatterRowDots entry.
void ExpectPanelsMatchSingleRows(const CsrMatrix& a, const CsrMatrix& b,
                                 const std::vector<int32_t>& pick,
                                 const std::vector<int32_t>& targets) {
  ThreadPool pool(4);
  for (size_t size = 0; size <= pick.size(); ++size) {
    const std::vector<int32_t> batch(pick.begin(),
                                     pick.begin() + static_cast<int64_t>(size));
    for (simd::SimdTier tier : testing::SupportedTiers()) {
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
            << ops.name << " cols " << a.cols() << " batch size " << size
            << " pool " << (p != nullptr);
      }
    }
  }
}

// `rows` rows of RandomSparse with row 0 emptied.
CsrMatrix RandomSparseWithEmptyRow(int64_t rows, int64_t cols, double density,
                                   uint64_t seed) {
  const CsrMatrix full = RandomSparse(rows, cols, density, seed);
  CsrBuilder builder(full.cols());
  builder.AddRow({}, {});
  for (int64_t r = 1; r < full.rows(); ++r) {
    builder.AddRow(full.RowIndices(r), full.RowValues(r));
  }
  return ValueOrDie(builder.Finish());
}

TEST(BatchRowDotsTest, PanelsMatchSingleRowDotsAtEveryBatchSize) {
  // Batch rows run in register-blocked panels of 16, 8 and 4 rows, and a
  // lone last row takes gather_dot. Every batch size from 0 to 40 — each
  // mix of whole and partial panels of every width — must give, per entry,
  // the bits of the single-row ScatterRowDots, on every tier and pool size.
  // The batch includes an empty row and repeats a row inside one panel.
  std::vector<int32_t> pick = {0, 9, 9, 17, 3, 39, 22, 5, 11, 30, 1};
  for (int32_t i = static_cast<int32_t>(pick.size()); i < 40; ++i) {
    pick.push_back((i * 7 + 3) % 40);
  }
  std::vector<int32_t> targets;
  for (int32_t i = 0; i < 25; ++i) targets.push_back(i);
  ExpectPanelsMatchSingleRows(RandomSparseWithEmptyRow(40, 70, 0.3, 51),
                              RandomSparse(25, 70, 0.25, 52), pick, targets);
  // A panel is wider than 4 rows only while its workspace fits in 1 MiB:
  // 12,000 columns allow 8-row panels but not 16, and 20,000 columns keep
  // every panel at 4 rows.
  pick.resize(20);
  for (int32_t& row : pick) row %= 20;
  for (int64_t cols : {int64_t{12000}, int64_t{20000}}) {
    ExpectPanelsMatchSingleRows(RandomSparseWithEmptyRow(20, cols, 0.01, 53),
                                RandomSparse(14, cols, 0.02, 54), pick,
                                {0, 2, 3, 5, 8, 13});
  }}

TEST(BatchRowDotsTest, TransposedStoresMatchSingleRowDotsAtEveryTargetCount) {
  // A panel's dots reach `out` four targets at a time through 4 x 4
  // transposes, with a shorter last group. Every target count from 0 to 9
  // (no group, whole groups and every remainder), at batch sizes that take
  // 16-, 8- and 4-row panels, full and partial, must still give the bits of
  // the single-row ScatterRowDots.
  std::vector<int32_t> pick;
  for (int32_t i = 0; i < 21; ++i) pick.push_back((i * 5 + 2) % 30);
  const CsrMatrix a = RandomSparseWithEmptyRow(30, 50, 0.3, 61);
  const CsrMatrix b = RandomSparse(12, 50, 0.25, 62);
  for (int32_t count = 0; count <= 9; ++count) {
    std::vector<int32_t> targets;
    for (int32_t t = 0; t < count; ++t) targets.push_back((t * 7 + 3) % 12);
    ExpectPanelsMatchSingleRows(a, b, pick, targets);
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
