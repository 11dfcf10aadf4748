#include "solver/kernel_cache.h"

#include <gtest/gtest.h>

namespace gmpsvm {
namespace {

TEST(KernelCacheTest, MissThenHit) {
  KernelCache cache(/*row_length=*/4, /*capacity_bytes=*/4 * 8 * 3);  // 3 rows
  EXPECT_EQ(cache.capacity_rows(), 3);
  EXPECT_EQ(cache.Lookup(0), nullptr);
  double* slot = cache.Insert(0);
  slot[0] = 1.5;
  const double* hit = cache.Lookup(0);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit[0], 1.5);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(KernelCacheTest, EvictsLeastRecentlyUsed) {
  KernelCache cache(2, 2 * 8 * 2);  // 2 rows
  cache.Insert(10)[0] = 10;
  cache.Insert(20)[0] = 20;
  // Touch 10 so 20 becomes LRU.
  ASSERT_NE(cache.Lookup(10), nullptr);
  cache.Insert(30)[0] = 30;
  EXPECT_NE(cache.Lookup(10), nullptr);
  EXPECT_EQ(cache.Lookup(20), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(30), nullptr);
}

TEST(KernelCacheTest, AtLeastTwoRowsEvenWithTinyBudget) {
  // An SMO step reads two rows at once, so the floor is two rows (LibSVM's
  // Cache does the same), still capped by max_rows.
  KernelCache cache(1000, /*capacity_bytes=*/1);
  EXPECT_EQ(cache.capacity_rows(), 2);
  cache.Insert(5)[999] = 7.0;
  cache.Insert(6)[0] = 1.0;
  EXPECT_DOUBLE_EQ(cache.Lookup(5)[999], 7.0);
  EXPECT_DOUBLE_EQ(cache.Lookup(6)[0], 1.0);
  // The third insert evicts the least recent row (5 was looked up before 6).
  cache.Insert(7);
  EXPECT_EQ(cache.Lookup(5), nullptr);
  EXPECT_NE(cache.Lookup(6), nullptr);
  EXPECT_NE(cache.Lookup(7), nullptr);
  EXPECT_EQ(KernelCache(1000, 1, /*max_rows=*/1).capacity_rows(), 1);
}

TEST(KernelCacheTest, RowsCachedTracksOccupancy) {
  KernelCache cache(2, 2 * 8 * 4);
  EXPECT_EQ(cache.rows_cached(), 0);
  cache.Insert(1);
  cache.Insert(2);
  EXPECT_EQ(cache.rows_cached(), 2);
}

TEST(KernelCacheTest, ManyInsertionsCycleWithoutGrowth) {
  KernelCache cache(8, 8 * 8 * 4);  // 4 rows
  for (int32_t r = 0; r < 100; ++r) {
    double* slot = cache.Insert(r);
    slot[0] = r;
  }
  EXPECT_EQ(cache.rows_cached(), 4);
  // The last four rows survive.
  for (int32_t r = 96; r < 100; ++r) {
    ASSERT_NE(cache.Lookup(r), nullptr);
    EXPECT_DOUBLE_EQ(cache.Lookup(r)[0], r);
  }
}

}  // namespace
}  // namespace gmpsvm
