#include "solver/kernel_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault/fault_injector.h"

namespace gmpsvm {
namespace {

TEST(KernelBufferTest, InsertAndLookup) {
  KernelBuffer buf(/*row_length=*/10, /*capacity_rows=*/4);
  std::vector<int32_t> rows = {7, 9};
  auto slots = ValueOrDie(buf.InsertBatch(rows));
  ASSERT_EQ(slots.size(), 2u);
  slots[0][0] = 70;
  slots[1][0] = 90;
  EXPECT_DOUBLE_EQ(buf.Lookup(7)[0], 70);
  EXPECT_DOUBLE_EQ(buf.Lookup(9)[0], 90);
  EXPECT_EQ(buf.Lookup(8), nullptr);
  EXPECT_EQ(buf.rows_buffered(), 2);
}

TEST(KernelBufferTest, PartitionSplitsPresentAndMissing) {
  KernelBuffer buf(5, 4);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{1, 2}));
  std::vector<int32_t> present, missing;
  std::vector<int32_t> want = {1, 3, 2, 4};
  buf.Partition(want, &present, &missing);
  EXPECT_EQ(present, (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(missing, (std::vector<int32_t>{3, 4}));
  EXPECT_EQ(buf.hits(), 2);
  EXPECT_EQ(buf.misses(), 2);
}

TEST(KernelBufferTest, FifoEviction) {
  KernelBuffer buf(4, 2);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{1}))[0][0] = 1;
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{2}))[0][0] = 2;
  // Lookup does not refresh order (FIFO, not LRU).
  ASSERT_NE(buf.Lookup(1), nullptr);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{3}));
  EXPECT_EQ(buf.Lookup(1), nullptr);  // oldest evicted despite recent lookup
  EXPECT_NE(buf.Lookup(2), nullptr);
  EXPECT_NE(buf.Lookup(3), nullptr);
  EXPECT_EQ(buf.evictions(), 1);
}

TEST(KernelBufferTest, PinnedRowsSurviveEviction) {
  KernelBuffer buf(5, 3);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{1, 2, 3}));
  std::vector<int32_t> pins = {1};
  buf.Pin(pins);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{4}));
  EXPECT_NE(buf.Lookup(1), nullptr);  // pinned: skipped
  EXPECT_EQ(buf.Lookup(2), nullptr);  // next-oldest evicted instead
  EXPECT_NE(buf.Lookup(4), nullptr);
}

TEST(KernelBufferTest, FailsWhenEverythingPinned) {
  KernelBuffer buf(4, 2);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{1, 2}));
  std::vector<int32_t> pins = {1, 2};
  buf.Pin(pins);
  auto result = buf.InsertBatch(std::vector<int32_t>{3});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

TEST(KernelBufferTest, FailedInsertChangesNothing) {
  // Rows 0 and 1 fill two of three slots and stay pinned with 2 and 3; the
  // call needs two slots and finds one, so it fails before placing 2.
  KernelBuffer buf(/*row_length=*/8, /*capacity_rows=*/3);
  const std::vector<int32_t> held = {0, 1};
  buf.Pin(held);
  ValueOrDie(buf.InsertBatch(held));
  buf.Pin(std::vector<int32_t>{0, 1, 2, 3});
  auto result = buf.InsertBatch(std::vector<int32_t>{2, 3});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
  EXPECT_EQ(buf.rows_buffered(), 2);
  EXPECT_EQ(buf.Lookup(2), nullptr);
  EXPECT_EQ(buf.Lookup(3), nullptr);
  EXPECT_EQ(buf.evictions(), 0);
  // The eviction order is unchanged too: unpinned, the free slot takes 4,
  // then 0 and 1 go oldest first.
  buf.Pin({});
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{4}));
  EXPECT_EQ(buf.evictions(), 0);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{5}));
  EXPECT_EQ(buf.Lookup(0), nullptr);
  EXPECT_NE(buf.Lookup(1), nullptr);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{6}));
  EXPECT_EQ(buf.Lookup(1), nullptr);
  for (int32_t row : {4, 5, 6}) EXPECT_NE(buf.Lookup(row), nullptr) << row;
  EXPECT_EQ(buf.evictions(), 2);
}

TEST(KernelBufferTest, NeverEvictsARowOfTheSameCall) {
  // Nothing is pinned, but three rows cannot share two slots: evicting the
  // call's first row for its third would hand out one slot twice.
  KernelBuffer buf(/*row_length=*/8, /*capacity_rows=*/2);
  auto result = buf.InsertBatch(std::vector<int32_t>{1, 2, 3});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
  EXPECT_EQ(buf.rows_buffered(), 0);
  // A buffered row from an earlier call is the victim instead.
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{0}));
  const std::vector<double*> slots =
      ValueOrDie(buf.InsertBatch(std::vector<int32_t>{1, 2}));
  EXPECT_NE(slots[0], slots[1]);
  EXPECT_EQ(buf.Lookup(0), nullptr);
  EXPECT_NE(buf.Lookup(1), nullptr);
  EXPECT_NE(buf.Lookup(2), nullptr);
  EXPECT_EQ(buf.evictions(), 1);
}

TEST(KernelBufferTest, PinReplacesPreviousPinSet) {
  KernelBuffer buf(4, 2);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{1, 2}));
  std::vector<int32_t> pins1 = {1, 2};
  buf.Pin(pins1);
  std::vector<int32_t> pins2 = {2};
  buf.Pin(pins2);  // 1 is unpinned now
  auto result = buf.InsertBatch(std::vector<int32_t>{3});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(buf.Lookup(1), nullptr);
  EXPECT_NE(buf.Lookup(2), nullptr);
}

TEST(KernelBufferTest, WorkingSetChurnScenario) {
  // Simulates the solver's use: ws of 4 rows, q=2 replaced each round with a
  // buffer of 4 rows — reuse hits should be exactly the kept half.
  KernelBuffer buf(8, 4);
  std::vector<int32_t> ws = {0, 1, 2, 3};
  buf.Pin(ws);
  std::vector<int32_t> present, missing;
  buf.Partition(ws, &present, &missing);
  EXPECT_EQ(missing.size(), 4u);
  ValueOrDie(buf.InsertBatch(missing));

  // Next round: 2 kept (2, 3), 2 new (4, 5).
  std::vector<int32_t> ws2 = {2, 3, 4, 5};
  buf.Pin(ws2);
  buf.Partition(ws2, &present, &missing);
  EXPECT_EQ(present, (std::vector<int32_t>{2, 3}));
  EXPECT_EQ(missing, (std::vector<int32_t>{4, 5}));
  auto slots = ValueOrDie(buf.InsertBatch(missing));
  ASSERT_EQ(slots.size(), 2u);
  for (int32_t r : ws2) EXPECT_NE(buf.Lookup(r), nullptr);
  EXPECT_EQ(buf.Lookup(0), nullptr);
  EXPECT_EQ(buf.Lookup(1), nullptr);
}

TEST(KernelBufferTest, ByteSizeMatchesCapacity) {
  KernelBuffer buf(100, 10);
  EXPECT_EQ(buf.ByteSize(), 100u * 10u * sizeof(double));
}

TEST(KernelBufferTest, LargerBufferRetainsDepartedRows) {
  // Buffer capacity > working set: rows that leave the ws stay buffered and
  // produce hits when they re-enter — the Figure 6 effect.
  KernelBuffer small(4, 2);
  KernelBuffer large(4, 6);
  for (KernelBuffer* buf : {&small, &large}) {
    std::vector<int32_t> present, missing;
    // Rounds with ws {0,1}, {2,3}, {0,1}: re-entry of 0 and 1.
    for (auto& ws : std::vector<std::vector<int32_t>>{{0, 1}, {2, 3}, {0, 1}}) {
      buf->Pin(ws);
      buf->Partition(ws, &present, &missing);
      if (!missing.empty()) ValueOrDie(buf->InsertBatch(missing));
    }
  }
  EXPECT_EQ(small.hits(), 0);
  EXPECT_EQ(large.hits(), 2);  // 0 and 1 were still buffered on re-entry
}

// kLru is LibSVM's kernel cache, as SmoSolver and GPUSVM size and use it:
// one row per lookup, nothing pinned, no fault injector.
constexpr KernelBuffer::Policy kLru = KernelBuffer::Policy::kLru;

double* InsertOne(KernelBuffer* cache, int32_t row) {
  return ValueOrDie(cache->InsertBatch(std::vector<int32_t>{row}))[0];
}

TEST(KernelBufferLruTest, MissThenHit) {
  KernelBuffer cache(/*row_length=*/4,
                     KernelBuffer::CacheRows(4, /*bytes=*/4 * 8 * 3), kLru);
  EXPECT_EQ(cache.capacity_rows(), 3);
  EXPECT_EQ(cache.Lookup(0), nullptr);
  std::vector<int32_t> present, missing;
  std::vector<int32_t> want = {0};
  cache.Partition(want, &present, &missing);
  EXPECT_EQ(missing, want);
  InsertOne(&cache, 0)[0] = 1.5;
  const double* hit = cache.Lookup(0);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit[0], 1.5);
  cache.Partition(want, &present, &missing);
  EXPECT_EQ(present, want);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(KernelBufferLruTest, EvictsLeastRecentlyUsed) {
  KernelBuffer cache(4, KernelBuffer::CacheRows(4, 4 * 8 * 2), kLru);  // 2 rows
  InsertOne(&cache, 1)[0] = 1;
  InsertOne(&cache, 2)[0] = 2;
  // Touch 1 so 2 becomes least recent.
  ASSERT_NE(cache.Lookup(1), nullptr);
  InsertOne(&cache, 3)[0] = 3;
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.Lookup(2), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(cache.evictions(), 1);
}

TEST(KernelBufferLruTest, AtLeastTwoRowsEvenWithTinyBudget) {
  // An SMO step reads two rows at once, so the floor is two rows (LibSVM's
  // Cache does the same), still capped by the problem's row count.
  EXPECT_EQ(KernelBuffer::CacheRows(1000, /*bytes=*/1), 2);
  KernelBuffer cache(1000, KernelBuffer::CacheRows(1000, 1), kLru);
  InsertOne(&cache, 5)[999] = 7.0;
  InsertOne(&cache, 6)[0] = 1.0;
  EXPECT_DOUBLE_EQ(cache.Lookup(5)[999], 7.0);
  EXPECT_DOUBLE_EQ(cache.Lookup(6)[0], 1.0);
  // The third insert evicts the least recent row (5 was looked up before 6).
  InsertOne(&cache, 7);
  EXPECT_EQ(cache.Lookup(5), nullptr);
  EXPECT_NE(cache.Lookup(6), nullptr);
  EXPECT_NE(cache.Lookup(7), nullptr);
  EXPECT_EQ(KernelBuffer::CacheRows(1, 1), 1);
  EXPECT_EQ(KernelBuffer::CacheRows(4, 4 * 8 * 100), 4);
}

TEST(KernelBufferLruTest, RowsBufferedTracksOccupancy) {
  KernelBuffer cache(4, KernelBuffer::CacheRows(4, 4 * 8 * 4), kLru);
  EXPECT_EQ(cache.rows_buffered(), 0);
  InsertOne(&cache, 1);
  InsertOne(&cache, 2);
  EXPECT_EQ(cache.rows_buffered(), 2);
}

TEST(KernelBufferLruTest, ManyInsertionsCycleWithoutGrowth) {
  KernelBuffer cache(100, KernelBuffer::CacheRows(100, 100 * 8 * 4), kLru);
  ASSERT_EQ(cache.capacity_rows(), 4);
  for (int32_t r = 0; r < 100; ++r) InsertOne(&cache, r)[0] = r;
  EXPECT_EQ(cache.rows_buffered(), 4);
  EXPECT_EQ(cache.evictions(), 96);
  // The last four rows survive.
  for (int32_t r = 96; r < 100; ++r) {
    ASSERT_NE(cache.Lookup(r), nullptr);
    EXPECT_DOUBLE_EQ(cache.Lookup(r)[0], r);
  }
}

TEST(KernelBufferPoisonTest, PoisonedRowBehavesAsAbsentUntilRewritten) {
  fault::FaultPlan plan;
  plan.evict_poison_prob = 1.0;
  plan.max_consecutive_per_site = 0;
  fault::FaultInjector injector(plan);

  KernelBuffer buf(5, 3);
  buf.SetFaultInjector(&injector);
  auto slots = ValueOrDie(buf.InsertBatch(std::vector<int32_t>{1, 2, 3}));
  for (auto* s : slots) s[0] = 42.0;
  EXPECT_EQ(buf.rows_poisoned(), 0);  // no eviction yet, no poison draw

  // Inserting 4 evicts row 1 and (injected) poisons the oldest survivor: 2.
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{4}));
  EXPECT_EQ(buf.rows_poisoned(), 1);
  EXPECT_TRUE(buf.IsPoisoned(2));
  EXPECT_EQ(buf.Lookup(2), nullptr);  // reads garbage never, recompute always
  EXPECT_NE(buf.Lookup(3), nullptr);

  std::vector<int32_t> present, missing;
  std::vector<int32_t> want = {2, 3};
  buf.Partition(want, &present, &missing);
  EXPECT_EQ(present, (std::vector<int32_t>{3}));
  EXPECT_EQ(missing, (std::vector<int32_t>{2}));

  // Re-inserting the poisoned row reuses its slot and clears the poison.
  auto rewrite = ValueOrDie(buf.InsertBatch(missing));
  ASSERT_EQ(rewrite.size(), 1u);
  rewrite[0][0] = 7.0;
  EXPECT_FALSE(buf.IsPoisoned(2));
  ASSERT_NE(buf.Lookup(2), nullptr);
  EXPECT_DOUBLE_EQ(buf.Lookup(2)[0], 7.0);
}

TEST(KernelBufferPoisonTest, PinnedRowsAreNeverPoisoned) {
  fault::FaultPlan plan;
  plan.evict_poison_prob = 1.0;
  plan.max_consecutive_per_site = 0;
  fault::FaultInjector injector(plan);

  KernelBuffer buf(5, 3);
  buf.SetFaultInjector(&injector);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{1, 2, 3}));
  std::vector<int32_t> pins = {2, 3};
  buf.Pin(pins);
  // Evicts unpinned row 1; the only poison candidates are pinned or freshly
  // inserted, so nothing is poisoned.
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{4}));
  EXPECT_EQ(buf.rows_poisoned(), 0);
  EXPECT_NE(buf.Lookup(2), nullptr);
  EXPECT_NE(buf.Lookup(3), nullptr);
}

TEST(KernelBufferPoisonTest, FailedInsertKeepsPoisonFlags) {
  fault::FaultPlan plan;
  plan.evict_poison_prob = 1.0;
  plan.max_consecutive_per_site = 0;
  fault::FaultInjector injector(plan);

  KernelBuffer buf(5, 3);
  buf.SetFaultInjector(&injector);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{1, 2, 3}));
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{4}));  // evicts 1, poisons 2
  ASSERT_TRUE(buf.IsPoisoned(2));
  // Re-inserting 2 needs no slot, but 0 needs one and every row is pinned:
  // the call fails and 2 must stay poisoned, never handed out as clean.
  buf.Pin(std::vector<int32_t>{0, 2, 3, 4});
  auto result = buf.InsertBatch(std::vector<int32_t>{2, 0});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
  EXPECT_TRUE(buf.IsPoisoned(2));
  EXPECT_EQ(buf.Lookup(2), nullptr);
  EXPECT_EQ(buf.Lookup(0), nullptr);
  EXPECT_EQ(buf.rows_buffered(), 3);
  EXPECT_EQ(buf.rows_poisoned(), 1);
  EXPECT_EQ(buf.evictions(), 1);
}

TEST(KernelBufferPoisonTest, NoInjectorNoPoisonEver) {
  KernelBuffer buf(4, 2);
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{1, 2}));
  ValueOrDie(buf.InsertBatch(std::vector<int32_t>{3}));  // evicts
  EXPECT_EQ(buf.rows_poisoned(), 0);
  EXPECT_EQ(buf.evictions(), 1);
}

// Counters and final residency of one scripted buffer session.
struct BufferReplay {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t rows_poisoned = 0;
  int64_t rows_buffered = 0;
  std::vector<int32_t> resident;  // rows Lookup finds at the end
  std::vector<int32_t> poisoned;  // rows still poisoned at the end
};

// A scripted solver-like session over 48 row ids: 60 rounds of a 4-6 row
// working set (pinned, partitioned, missing rows inserted) through a
// 10-row buffer, with the eviction fault hook poisoning a bystander on two
// of every three evicting inserts. Every 7th round also inserts a burst of up
// to 4 absent rows, which always fits beside the pinned working set. Purely
// arithmetic, so the session is fixed.
BufferReplay ReplayBufferSession(KernelBuffer::Policy policy) {
  constexpr int32_t kKeys = 48;
  fault::FaultPlan plan;
  plan.evict_poison_prob = 1.0;
  plan.max_consecutive_per_site = 2;  // inject, inject, skip, ...
  fault::FaultInjector injector(plan);
  KernelBuffer buf(/*row_length=*/kKeys, /*capacity_rows=*/10, policy);
  buf.SetFaultInjector(&injector);

  BufferReplay out;
  std::vector<int32_t> present, missing;
  for (int32_t r = 0; r < 60; ++r) {
    std::vector<int32_t> ws;
    for (int32_t j = 0; j < 4 + r % 3; ++j) {
      const int32_t row = (r * 7 + j * 11 + (r * r) % 5) % kKeys;
      if (std::find(ws.begin(), ws.end(), row) == ws.end()) ws.push_back(row);
    }
    buf.Pin(ws);
    buf.Partition(ws, &present, &missing);
    if (!missing.empty()) {
      const std::vector<double*> slots = ValueOrDie(buf.InsertBatch(missing));
      for (size_t k = 0; k < missing.size(); ++k) slots[k][0] = missing[k] + 0.5;
    }
    for (int32_t w : ws) {
      const double* row = buf.Lookup(w);
      EXPECT_TRUE(row != nullptr && row[0] == w + 0.5) << "round " << r << " row " << w;
    }
    if (r % 7 == 6) {
      std::vector<int32_t> burst;
      for (int32_t j = 0; j < 4; ++j) {
        const int32_t row = (r * 3 + j * 13 + 1) % kKeys;
        if (std::find(ws.begin(), ws.end(), row) == ws.end() &&
            buf.Lookup(row) == nullptr && !buf.IsPoisoned(row) &&
            std::find(burst.begin(), burst.end(), row) == burst.end()) {
          burst.push_back(row);
        }
      }
      const std::vector<double*> slots = ValueOrDie(buf.InsertBatch(burst));
      for (size_t k = 0; k < burst.size(); ++k) slots[k][0] = burst[k] + 0.5;
    }
  }
  out.hits = buf.hits();
  out.misses = buf.misses();
  out.evictions = buf.evictions();
  out.rows_poisoned = buf.rows_poisoned();
  out.rows_buffered = buf.rows_buffered();
  for (int32_t row = 0; row < kKeys; ++row) {
    if (buf.IsPoisoned(row)) out.poisoned.push_back(row);
    if (buf.Lookup(row) != nullptr) out.resident.push_back(row);
  }
  return out;
}

// The scripted session's counters and final residency, as the hash-indexed
// buffer produced them: the array-indexed buffer must replay it exactly.
TEST(KernelBufferReplayTest, ScriptedSessionMatchesRecordedCounters) {
  const BufferReplay fifo = ReplayBufferSession(KernelBuffer::Policy::kFifo);
  EXPECT_EQ(fifo.hits, 61);
  EXPECT_EQ(fifo.misses, 239);
  EXPECT_EQ(fifo.evictions, 252);
  EXPECT_EQ(fifo.rows_poisoned, 38);
  EXPECT_EQ(fifo.rows_buffered, 10);
  EXPECT_EQ(fifo.resident, (std::vector<int32_t>{0, 4, 11, 15, 22, 26, 30, 37, 41}));
  EXPECT_EQ(fifo.poisoned, (std::vector<int32_t>{19}));

  const BufferReplay lru = ReplayBufferSession(KernelBuffer::Policy::kLru);
  EXPECT_EQ(lru.hits, 60);
  EXPECT_EQ(lru.misses, 240);
  EXPECT_EQ(lru.evictions, 255);
  EXPECT_EQ(lru.rows_poisoned, 38);
  EXPECT_EQ(lru.rows_buffered, 10);
  EXPECT_EQ(lru.resident, (std::vector<int32_t>{0, 4, 11, 15, 22, 26, 30, 37, 41}));
  EXPECT_EQ(lru.poisoned, (std::vector<int32_t>{19}));
}

}  // namespace
}  // namespace gmpsvm
