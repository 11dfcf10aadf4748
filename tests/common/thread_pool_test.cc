#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "device/executor.h"

namespace gmpsvm {
namespace {

// Work that makes every item worth one chunk, so a call splits as finely as
// the pool allows.
double ChunkPerItem(int64_t n) { return static_cast<double>(n) * kMinChunkFlops; }

// The chunks one ParallelFor call ran, in the order they finished.
struct Chunks {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  std::vector<std::thread::id> threads;

  std::function<void(int64_t, int64_t)> Body() {
    return [this](int64_t begin, int64_t end) {
      std::lock_guard<std::mutex> lock(mu);
      ranges.emplace_back(begin, end);
      threads.push_back(std::this_thread::get_id());
    };
  }
};

TEST(ThreadPoolTest, ClampsNonPositiveThreadCount) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool pool2(-3);
  EXPECT_EQ(pool2.num_threads(), 1);
}

TEST(ThreadPoolTest, CallWorthFewerThanTwoChunksRunsOnTheCaller) {
  ThreadPool pool(4);
  for (const double flops : {0.0, kMinChunkFlops, 2.0 * kMinChunkFlops - 1.0}) {
    Chunks chunks;
    ParallelFor(&pool, 1000, flops, chunks.Body());
    ASSERT_EQ(chunks.ranges.size(), 1u) << flops;
    EXPECT_EQ(chunks.ranges[0], std::make_pair(int64_t{0}, int64_t{1000}));
    EXPECT_EQ(chunks.threads[0], std::this_thread::get_id());
  }
  // Three items cannot make two chunks of kMinChunkFlops each.
  Chunks three;
  ParallelFor(&pool, 3, 2.0 * kMinChunkFlops, three.Body());
  ASSERT_EQ(three.ranges.size(), 1u);
  EXPECT_EQ(three.threads[0], std::this_thread::get_id());
}

TEST(ThreadPoolTest, LargerCallSplitsIntoChunksOfAtLeastMinimumWork) {
  ThreadPool pool(4);
  constexpr int64_t kN = 1000;
  // Two chunks' worth: exactly two chunks, each of half the range.
  Chunks two;
  ParallelFor(&pool, kN, 2.0 * kMinChunkFlops, two.Body());
  std::sort(two.ranges.begin(), two.ranges.end());
  ASSERT_EQ(two.ranges.size(), 2u);
  EXPECT_EQ(two.ranges[0], std::make_pair(int64_t{0}, int64_t{500}));
  EXPECT_EQ(two.ranges[1], std::make_pair(int64_t{500}, kN));
  // Seven chunks' worth over 1000 items: seven chunks, each carrying at
  // least kMinChunkFlops at the mean work per item.
  const double flops = 7.5 * kMinChunkFlops;
  Chunks seven;
  ParallelFor(&pool, kN, flops, seven.Body());
  ASSERT_EQ(seven.ranges.size(), 7u);
  for (const auto& [begin, end] : seven.ranges) {
    EXPECT_GE(static_cast<double>(end - begin) * flops / kN, kMinChunkFlops);
  }
  // However much work, at most four chunks per thread.
  Chunks many;
  ParallelFor(&pool, kN, ChunkPerItem(kN), many.Body());
  EXPECT_EQ(many.ranges.size(), 16u);
}

TEST(ThreadPoolTest, NullOrSingleThreadPoolRunsInline) {
  ThreadPool one(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one}) {
    Chunks chunks;
    ParallelFor(pool, 5000, ChunkPerItem(5000), chunks.Body());
    ASSERT_EQ(chunks.ranges.size(), 1u);
    EXPECT_EQ(chunks.ranges[0], std::make_pair(int64_t{0}, int64_t{5000}));
    EXPECT_EQ(chunks.threads[0], std::this_thread::get_id());
  }
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(10000);
  ParallelFor(&pool, 10000, ChunkPerItem(10000),
              [&touched](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  touched[static_cast<size_t>(i)]++;
                }
              });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    ParallelFor(p, 0, ChunkPerItem(100),
                [&called](int64_t, int64_t) { called = true; });
  }
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> touched(3);
  ParallelFor(&pool, 3, ChunkPerItem(3),
              [&touched](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  touched[static_cast<size_t>(i)]++;
                }
              });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelFor) {
  // A ParallelFor body may itself call ParallelFor on the same pool (an op
  // body that fans out again). Callers participate in their own range, so
  // nesting must not deadlock even when every worker is inside an outer
  // chunk.
  ThreadPool pool(4);
  constexpr int64_t kOuter = 8;
  constexpr int64_t kInner = 1000;
  std::vector<std::atomic<int>> touched(kOuter * kInner);
  ParallelFor(&pool, kOuter, ChunkPerItem(kOuter),
              [&pool, &touched](int64_t begin, int64_t end) {
                for (int64_t o = begin; o < end; ++o) {
                  ParallelFor(&pool, kInner, ChunkPerItem(kInner),
                              [o, &touched](int64_t ib, int64_t ie) {
                                for (int64_t i = ib; i < ie; ++i) {
                                  touched[static_cast<size_t>(o * kInner + i)]++;
                                }
                              });
                }
              });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentParallelForCalls) {
  // Two external threads drive independent ParallelFors over one pool; each
  // must see exactly its own range covered once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(4000), b(4000);
  auto drive = [&pool](std::vector<std::atomic<int>>* out) {
    const int64_t n = static_cast<int64_t>(out->size());
    ParallelFor(&pool, n, ChunkPerItem(n), [out](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) (*out)[static_cast<size_t>(i)]++;
    });
  };
  std::thread ta(drive, &a), tb(drive, &b);
  ta.join();
  tb.join();
  for (const auto& t : a) EXPECT_EQ(t.load(), 1);
  for (const auto& t : b) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ExecutorPoolDoesNotChangeOutputOrSimTime) {
  constexpr int64_t kN = 10000;
  auto run = [&](int host_threads, std::vector<double>* out) -> double {
    ExecutorModel model = ExecutorModel::TeslaP100();
    model.host_threads = host_threads;
    SimExecutor exec(std::move(model));
    out->assign(static_cast<size_t>(kN), 0.0);
    const TaskCost cost =
        VectorPassCost(kN, /*flops_per_item=*/10.0, /*bytes_per_item=*/16.0);
    // Priced as a chunk per item, so the 4-thread run splits the range.
    ParallelFor(exec.host_pool(), kN, ChunkPerItem(kN),
                [out](int64_t begin, int64_t end) {
                  for (int64_t i = begin; i < end; ++i) {
                    (*out)[static_cast<size_t>(i)] =
                        static_cast<double>(i) * 1.000000001 + 0.5;
                  }
                });
    exec.Charge(kDefaultStream, cost);
    exec.SynchronizeAll();
    return exec.NowSeconds();
  };
  std::vector<double> serial_out, mt_out;
  const double serial_time = run(1, &serial_out);
  const double mt_time = run(4, &mt_out);
  EXPECT_EQ(serial_time, mt_time);
  ASSERT_EQ(serial_out.size(), mt_out.size());
  EXPECT_EQ(0, std::memcmp(serial_out.data(), mt_out.data(),
                           serial_out.size() * sizeof(double)));
}

}  // namespace
}  // namespace gmpsvm
