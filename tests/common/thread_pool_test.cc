#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace gmpsvm {
namespace {

TEST(ThreadPoolTest, RunsScheduledTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ClampsNonPositiveThreadCount) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool pool2(-3);
  EXPECT_EQ(pool2.num_threads(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(10000);
  pool.ParallelFor(
      10000,
      [&touched](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) touched[static_cast<size_t>(i)]++;
      },
      /*min_chunk=*/16);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&called](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSmallRangeRunsInline) {
  ThreadPool pool(8);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(
      10,
      [&sum](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
      },
      /*min_chunk=*/1024);
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ParallelForOnSingleThreadPool) {
  ThreadPool pool(1);
  std::vector<int> touched(5000, 0);
  pool.ParallelFor(
      5000,
      [&touched](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) touched[static_cast<size_t>(i)]++;
      },
      /*min_chunk=*/1);
  for (int t : touched) EXPECT_EQ(t, 1);
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> touched(3);
  pool.ParallelFor(
      3,
      [&touched](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) touched[static_cast<size_t>(i)]++;
      },
      /*min_chunk=*/1);
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
  pool.ParallelFor(
      kOuter,
      [&pool, &touched](int64_t begin, int64_t end) {
        for (int64_t o = begin; o < end; ++o) {
          pool.ParallelFor(
              kInner,
              [o, &touched](int64_t ib, int64_t ie) {
                for (int64_t i = ib; i < ie; ++i) {
                  touched[static_cast<size_t>(o * kInner + i)]++;
                }
              },
              /*min_chunk=*/64);
        }
      },
      /*min_chunk=*/1);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForDoesNotWaitForUnrelatedTasks) {
  // A ParallelFor must only join its own chunks. A Schedule()d task that is
  // still blocked cannot be allowed to stall it (the serve path keeps
  // long-lived scheduled work on the same pool trainers borrow).
  ThreadPool pool(3);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Schedule([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(
      1000,
      [&sum](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
      },
      /*min_chunk=*/16);
  // Reaching here at all is the point; the blocked task is still parked.
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
}

TEST(ThreadPoolTest, ConcurrentParallelForCalls) {
  // Two external threads drive independent ParallelFors over one pool; each
  // must see exactly its own range covered once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(4000), b(4000);
  auto drive = [&pool](std::vector<std::atomic<int>>* out) {
    pool.ParallelFor(
        static_cast<int64_t>(out->size()),
        [out](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) (*out)[static_cast<size_t>(i)]++;
        },
        /*min_chunk=*/8);
  };
  std::thread ta(drive, &a), tb(drive, &b);
  ta.join();
  tb.join();
  for (const auto& t : a) EXPECT_EQ(t.load(), 1);
  for (const auto& t : b) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ScheduleDuringParallelFor) {
  ThreadPool pool(3);
  std::atomic<int> scheduled{0};
  pool.ParallelFor(
      100,
      [&pool, &scheduled](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          if (i % 10 == 0) {
            pool.Schedule([&scheduled] { scheduled.fetch_add(1); });
          }
        }
      },
      /*min_chunk=*/4);
  pool.Wait();
  EXPECT_EQ(scheduled.load(), 10);
}

TEST(ThreadPoolTest, TasksScheduledFromTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 5; ++i) {
    pool.Schedule([&pool, &counter] {
      counter.fetch_add(1);
      pool.Schedule([&counter] { counter.fetch_add(10); });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 55);
}

}  // namespace
}  // namespace gmpsvm
