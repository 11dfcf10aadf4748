#include "core/shared_blocks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../test_util.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

KernelParams Gaussian(double gamma) {
  KernelParams p;
  p.gamma = gamma;
  return p;
}

struct Fixture {
  Dataset data;
  KernelComputer computer;
  SimExecutor exec;

  explicit Fixture(uint64_t seed, int k = 3)
      : data(ValueOrDie(MakeMulticlassBlobs(k, 12, 5, 2.0, seed))),
        computer(&data.features(), Gaussian(0.4)),
        exec(ExecutorModel::TeslaP100()) {}
};

TEST(SharedBlockCacheTest, EnsureThenLookup) {
  Fixture fx(42);
  SharedBlockCache cache(&fx.data, &fx.computer, 16ull << 20, &fx.exec);
  std::vector<int32_t> rows = {0, 5};
  GMP_CHECK_OK(cache.Ensure(rows, /*cls=*/1, &fx.exec, kDefaultStream));
  auto seg = cache.Lookup(0, 1);
  ASSERT_EQ(seg.size(), fx.data.ClassRows(1).size());
  // Segment values equal pointwise kernel evaluations.
  for (size_t j = 0; j < seg.size(); ++j) {
    EXPECT_NEAR(seg[j], fx.computer.Compute(0, fx.data.ClassRows(1)[j]), 1e-12);
  }
  EXPECT_EQ(cache.segments_cached(), 2);
}

TEST(SharedBlockCacheTest, SecondEnsureIsAllHits) {
  Fixture fx(7);
  SharedBlockCache cache(&fx.data, &fx.computer, 16ull << 20, &fx.exec);
  std::vector<int32_t> rows = {1, 2, 3};
  GMP_CHECK_OK(cache.Ensure(rows, 0, &fx.exec, kDefaultStream));
  const int64_t computed_after_first = fx.exec.counters().kernel_values_computed;
  GMP_CHECK_OK(cache.Ensure(rows, 0, &fx.exec, kDefaultStream));
  EXPECT_EQ(fx.exec.counters().kernel_values_computed, computed_after_first);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_GT(fx.exec.counters().kernel_values_reused, 0);
}

TEST(SharedBlockCacheTest, EvictsUnderPressure) {
  Fixture fx(11);
  const size_t seg_bytes = fx.data.ClassRows(0).size() * sizeof(double);
  // Budget for ~4 segments of class 0.
  SharedBlockCache cache(&fx.data, &fx.computer, 4 * seg_bytes, &fx.exec);
  for (int32_t r = 0; r < 8; ++r) {
    std::vector<int32_t> rows = {r};
    GMP_CHECK_OK(cache.Ensure(rows, 0, &fx.exec, kDefaultStream));
  }
  EXPECT_LE(cache.bytes_used(), 4 * seg_bytes);
  EXPECT_LE(cache.segments_cached(), 4);
  // The most recent segment survives; the oldest was evicted.
  EXPECT_FALSE(cache.Lookup(7, 0).empty());
  EXPECT_TRUE(cache.Lookup(0, 0).empty());
}

TEST(SharedBlockCacheTest, BatchLargerThanBudgetFails) {
  Fixture fx(13);
  SharedBlockCache cache(&fx.data, &fx.computer, /*budget=*/8, &fx.exec);
  std::vector<int32_t> rows = {0, 1, 2, 3};
  auto status = cache.Ensure(rows, 0, &fx.exec, kDefaultStream);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsFailedPrecondition());
}

// A scripted multi-pair session: each of 48 rounds picks a class pair and
// 3-5 of the first five rows of its classes (so segments recur across pairs
// and rounds), pins both classes' segments, ensures them and reads them
// back, as a row source does. Purely arithmetic, so the session is fixed.
struct CacheReplay {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t segments_cached = 0;
  size_t bytes_used = 0;
  int64_t values_computed = 0;
  int64_t values_reused = 0;
};

CacheReplay ReplayCacheSession(const Dataset& data, size_t budget_bytes) {
  const KernelComputer computer(&data.features(), Gaussian(0.4));
  SimExecutor exec(ExecutorModel::TeslaP100());
  SharedBlockCache cache(&data, &computer, budget_bytes, &exec);
  const auto pairs = data.ClassPairs();
  for (int r = 0; r < 48; ++r) {
    const auto [s, t] = pairs[static_cast<size_t>((r * 5) % pairs.size())];
    std::vector<int32_t> globals;
    for (int j = 0; j < 3 + r % 3; ++j) {
      const auto& from = data.ClassRows(j % 2 == 0 ? s : t);
      const int32_t g = from[static_cast<size_t>((r / 2 + j) % 5)];
      if (std::find(globals.begin(), globals.end(), g) == globals.end()) {
        globals.push_back(g);
      }
    }
    cache.PinPairs(globals, s, t);
    for (int cls : {s, t}) {
      GMP_CHECK_OK(cache.Ensure(globals, cls, &exec, kDefaultStream));
    }
    for (int32_t g : globals) {
      for (int cls : {s, t}) {
        const auto seg = cache.Lookup(g, cls);
        EXPECT_FALSE(seg.empty()) << "round " << r;
        if (seg.empty()) continue;
        EXPECT_EQ(seg.size(), data.ClassRows(cls).size());
        EXPECT_NEAR(seg[0], computer.Compute(g, data.ClassRows(cls)[0]), 1e-12);
      }
    }
  }
  return CacheReplay{cache.hits(), cache.misses(), cache.segments_cached(),
                     cache.bytes_used(), exec.counters().kernel_values_computed,
                     exec.counters().kernel_values_reused};
}

// The first sizes[c] rows of each class c of `full`.
Dataset KeepFirstRows(const Dataset& full, const std::vector<size_t>& sizes) {
  std::vector<int32_t> rows;
  for (int c = 0; c < full.num_classes(); ++c) {
    const auto& class_rows = full.ClassRows(c);
    rows.insert(rows.end(), class_rows.begin(),
                class_rows.begin() + static_cast<int64_t>(sizes[static_cast<size_t>(c)]));
  }
  std::sort(rows.begin(), rows.end());
  std::vector<int32_t> labels;
  for (int32_t row : rows) labels.push_back(full.labels()[static_cast<size_t>(row)]);
  return ValueOrDie(Dataset::Create(full.features().SelectRows(rows), std::move(labels),
                                    full.num_classes()));
}

// The scripted sessions' counters were recorded from the cache's earlier
// hash-indexed implementation; the array-indexed one must replay them
// exactly, with segments of one size and with segments of mixed sizes.
TEST(SharedBlockCacheReplayTest, ScriptedSessionMatchesRecordedCounters) {
  const Dataset equal = ValueOrDie(MakeMulticlassBlobs(4, 12, 5, 2.0, 23));
  const CacheReplay got = ReplayCacheSession(equal, 14 * 12 * sizeof(double));
  EXPECT_EQ(got.hits, 54);
  EXPECT_EQ(got.misses, 330);
  EXPECT_EQ(got.segments_cached, 14);
  EXPECT_EQ(got.bytes_used, 1344u);
  EXPECT_EQ(got.values_computed, 3960);
  EXPECT_EQ(got.values_reused, 648);

  const Dataset unequal = KeepFirstRows(
      ValueOrDie(MakeMulticlassBlobs(4, 15, 5, 2.0, 29)), {6, 15, 9, 12});
  const CacheReplay mixed = ReplayCacheSession(unequal, 20 * 15 * sizeof(double));
  EXPECT_EQ(mixed.hits, 93);
  EXPECT_EQ(mixed.misses, 291);
  EXPECT_EQ(mixed.segments_cached, 29);
  EXPECT_EQ(mixed.bytes_used, 2400u);
  EXPECT_EQ(mixed.values_computed, 3033);
  EXPECT_EQ(mixed.values_reused, 975);
}

TEST(SharedRowSourceTest, RowsMatchDirectComputation) {
  Fixture fx(17);
  SharedBlockCache cache(&fx.data, &fx.computer, 32ull << 20, &fx.exec);
  BinaryProblem problem = fx.data.MakePairProblem(0, 2, 1.0, Gaussian(0.4));
  SharedRowSource shared(&problem, 0, 2, &cache, &fx.computer);
  DirectRowSource direct(&problem, &fx.computer);

  const int64_t n = problem.n();
  std::vector<int32_t> locals = {0, static_cast<int32_t>(n / 2),
                                 static_cast<int32_t>(n - 1)};
  std::vector<double> shared_rows(locals.size() * n);
  std::vector<double> direct_rows(locals.size() * n);
  std::vector<double*> shared_ptrs, direct_ptrs;
  for (size_t i = 0; i < locals.size(); ++i) {
    shared_ptrs.push_back(shared_rows.data() + i * n);
    direct_ptrs.push_back(direct_rows.data() + i * n);
  }
  shared.ComputeRows(locals, shared_ptrs, &fx.exec, kDefaultStream);
  direct.ComputeRows(locals, direct_ptrs, &fx.exec, kDefaultStream);
  for (size_t i = 0; i < shared_rows.size(); ++i) {
    EXPECT_NEAR(shared_rows[i], direct_rows[i], 1e-12) << "entry " << i;
  }
}

TEST(SharedRowSourceTest, CrossPairSharingSavesComputation) {
  // Pairs (0,1) and (0,2) share class 0: rows of class-0 instances computed
  // by the first pair are reused by the second.
  Fixture fx(19);
  SharedBlockCache cache(&fx.data, &fx.computer, 64ull << 20, &fx.exec);

  BinaryProblem p01 = fx.data.MakePairProblem(0, 1, 1.0, Gaussian(0.4));
  BinaryProblem p02 = fx.data.MakePairProblem(0, 2, 1.0, Gaussian(0.4));
  SharedRowSource s01(&p01, 0, 1, &cache, &fx.computer);
  SharedRowSource s02(&p02, 0, 2, &cache, &fx.computer);

  // Same class-0 instance is local row 0 in both problems.
  std::vector<int32_t> locals = {0};
  std::vector<double> row01(static_cast<size_t>(p01.n()));
  std::vector<double> row02(static_cast<size_t>(p02.n()));
  std::vector<double*> ptr01 = {row01.data()};
  std::vector<double*> ptr02 = {row02.data()};

  s01.ComputeRows(locals, ptr01, &fx.exec, kDefaultStream);
  const int64_t computed_mid = fx.exec.counters().kernel_values_computed;
  s02.ComputeRows(locals, ptr02, &fx.exec, kDefaultStream);
  const int64_t computed_by_second =
      fx.exec.counters().kernel_values_computed - computed_mid;
  // The second pair only computed the class-2 segment, not class-0 again.
  EXPECT_EQ(computed_by_second,
            static_cast<int64_t>(fx.data.ClassRows(2).size()));
  EXPECT_GT(cache.hits(), 0);
}

TEST(SharedRowSourceTest, FallsBackWhenBudgetTooSmall) {
  Fixture fx(23);
  SharedBlockCache cache(&fx.data, &fx.computer, /*budget=*/8, &fx.exec);
  BinaryProblem problem = fx.data.MakePairProblem(0, 1, 1.0, Gaussian(0.4));
  SharedRowSource shared(&problem, 0, 1, &cache, &fx.computer);
  DirectRowSource direct(&problem, &fx.computer);

  const int64_t n = problem.n();
  std::vector<int32_t> locals = {0, 1};
  std::vector<double> got(2 * n), want(2 * n);
  std::vector<double*> got_ptrs = {got.data(), got.data() + n};
  std::vector<double*> want_ptrs = {want.data(), want.data() + n};
  shared.ComputeRows(locals, got_ptrs, &fx.exec, kDefaultStream);  // fallback
  direct.ComputeRows(locals, want_ptrs, &fx.exec, kDefaultStream);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-12);
}

}  // namespace
}  // namespace gmpsvm
