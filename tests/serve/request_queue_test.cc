#include "serve/request_queue.h"

#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "serve/micro_batcher.h"

namespace gmpsvm {
namespace {

using std::chrono::milliseconds;

PendingRequest MakeItem(int32_t tag = 0, std::string model = "") {
  PendingRequest item;
  item.request.indices = {tag};
  item.request.values = {1.0};
  item.request.model_name = std::move(model);
  item.enqueue_time = MonotonicNow();
  return item;
}

// CPU seconds the calling thread has used.
double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

TEST(RequestQueueTest, PushPopFifo) {
  RequestQueue queue(8);
  for (int32_t i = 0; i < 3; ++i) GMP_CHECK_OK(queue.Push(MakeItem(i)));
  EXPECT_EQ(queue.size(), 3u);
  for (int32_t i = 0; i < 3; ++i) {
    PendingRequest out;
    ASSERT_TRUE(queue.Pop(&out));
    EXPECT_EQ(out.request.indices[0], i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueueTest, OverflowReturnsResourceExhausted) {
  RequestQueue queue(2);
  GMP_CHECK_OK(queue.Push(MakeItem()));
  GMP_CHECK_OK(queue.Push(MakeItem()));
  const Status status = queue.Push(MakeItem());
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
}

TEST(RequestQueueTest, PushAfterCloseFails) {
  RequestQueue queue(2);
  queue.Close();
  const Status status = queue.Push(MakeItem());
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
}

TEST(RequestQueueTest, PopDrainsAfterClose) {
  RequestQueue queue(4);
  GMP_CHECK_OK(queue.Push(MakeItem(1)));
  GMP_CHECK_OK(queue.Push(MakeItem(2)));
  queue.Close();
  PendingRequest out;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_FALSE(queue.Pop(&out));  // closed and empty
}

TEST(RequestQueueTest, PopBlocksUntilPush) {
  RequestQueue queue(4);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    PendingRequest out;
    if (queue.Pop(&out)) got = true;
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(got.load());
  GMP_CHECK_OK(queue.Push(MakeItem()));
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(RequestQueueTest, PausedConsumersHoldUntilResume) {
  RequestQueue queue(4);
  queue.Pause();
  GMP_CHECK_OK(queue.Push(MakeItem()));
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    PendingRequest out;
    if (queue.Pop(&out)) got = true;
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(got.load());  // item queued but consumption gated
  queue.Resume();
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(RequestQueueTest, CloseOverridesPauseForDraining) {
  RequestQueue queue(4);
  queue.Pause();
  GMP_CHECK_OK(queue.Push(MakeItem()));
  queue.Close();
  PendingRequest out;
  EXPECT_TRUE(queue.Pop(&out));  // drain proceeds despite pause
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(RequestQueueTest, PopBatchTakesBacklogUpToMax) {
  RequestQueue queue(16);
  for (int32_t i = 0; i < 6; ++i) GMP_CHECK_OK(queue.Push(MakeItem(i)));
  std::vector<PendingRequest> out;
  EXPECT_EQ(queue.PopBatch(4, milliseconds(0), &out), 4u);
  EXPECT_EQ(queue.size(), 2u);
  // Admission order is preserved.
  for (int32_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].request.indices[0], i);
}

TEST(RequestQueueTest, PopBatchWaitsForBatchWindow) {
  RequestQueue queue(16);
  GMP_CHECK_OK(queue.Push(MakeItem(0)));
  std::thread producer([&] {
    std::this_thread::sleep_for(milliseconds(10));
    (void)queue.Push(MakeItem(1));
  });
  std::vector<PendingRequest> out;
  // A generous window lets the late second request join the batch.
  EXPECT_EQ(queue.PopBatch(4, milliseconds(500), &out), 2u);
  producer.join();
}

TEST(RequestQueueTest, PopBatchWithInfiniteDelayWaitsInsteadOfSpinning) {
  // Regression: duration::max() added to now() used to overflow into the
  // past, making PopBatch return partial batches immediately. With the
  // saturating deadline it must keep the batch window open.
  RequestQueue queue(16);
  GMP_CHECK_OK(queue.Push(MakeItem(0)));
  std::thread producer([&] {
    std::this_thread::sleep_for(milliseconds(10));
    (void)queue.Push(MakeItem(1));
    std::this_thread::sleep_for(milliseconds(10));
    (void)queue.Push(MakeItem(2));
    queue.Close();
  });
  std::vector<PendingRequest> out;
  EXPECT_EQ(queue.PopBatch(3, MonotonicClock::duration::max(), &out), 3u);
  producer.join();
}

TEST(RequestQueueTest, PopBatchWithInfiniteDelayReturnsFullBatchPromptly) {
  RequestQueue queue(16);
  for (int32_t i = 0; i < 4; ++i) GMP_CHECK_OK(queue.Push(MakeItem(i)));
  std::vector<PendingRequest> out;
  // A full batch never waits, however large the window is.
  EXPECT_EQ(queue.PopBatch(4, MonotonicClock::duration::max(), &out), 4u);
}

TEST(RequestQueueTest, PopBatchWindowSleepsPastOtherModelsRequests) {
  // Regression: a queued request for another model kept the window's wake
  // condition true, so PopBatch rescanned the queue in a loop, holding the
  // lock, until the batch deadline; a Push from another thread waited for it.
  RequestQueue queue(16);
  GMP_CHECK_OK(queue.Push(MakeItem(0, "a")));
  GMP_CHECK_OK(queue.Push(MakeItem(1, "b")));
  double push_seconds = -1.0;
  std::thread producer([&] {
    std::this_thread::sleep_for(milliseconds(10));
    const MonotonicTime t0 = MonotonicNow();
    (void)queue.Push(MakeItem(2, "c"));
    push_seconds = SecondsBetween(t0, MonotonicNow());
  });
  std::vector<PendingRequest> out;
  const double cpu0 = ThreadCpuSeconds();
  EXPECT_EQ(queue.PopBatch(8, milliseconds(50), &out), 1u);
  const double cpu = ThreadCpuSeconds() - cpu0;
  producer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].request.model_name, "a");
  // Held open to its deadline, asleep.
  EXPECT_GE(SecondsBetween(out[0].enqueue_time, MonotonicNow()), 0.050);
  EXPECT_LT(cpu, 0.010);
  EXPECT_GE(push_seconds, 0.0);
  EXPECT_LT(push_seconds, 0.010);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(RequestQueueTest, ResumeIsPromptWhileABatchWindowIsOpen) {
  // Regression: a paused queue holding a request kept the window's wake
  // condition true; the looping PopBatch held the lock, so Resume waited for
  // the batch deadline.
  RequestQueue queue(16);
  GMP_CHECK_OK(queue.Push(MakeItem(0)));
  std::vector<PendingRequest> out;
  size_t popped = 0;
  std::thread consumer(
      [&] { popped = queue.PopBatch(8, milliseconds(50), &out); });
  // The consumer has taken item 0 and holds its batch open.
  while (queue.size() != 0) std::this_thread::sleep_for(milliseconds(1));
  queue.Pause();
  GMP_CHECK_OK(queue.Push(MakeItem(1)));
  std::this_thread::sleep_for(milliseconds(5));
  const MonotonicTime t0 = MonotonicNow();
  queue.Resume();
  const double resume_seconds = SecondsBetween(t0, MonotonicNow());
  consumer.join();
  EXPECT_LT(resume_seconds, 0.010);
  // Item 1 joins the open batch once the queue resumes.
  EXPECT_EQ(popped, 2u);
}

TEST(RequestQueueTest, PopBatchReturnsZeroWhenClosedEmpty) {
  RequestQueue queue(4);
  queue.Close();
  std::vector<PendingRequest> out;
  EXPECT_EQ(queue.PopBatch(4, milliseconds(10), &out), 0u);
}

TEST(MicroBatcherTest, CoalescesBacklogIntoOneBatch) {
  RequestQueue queue(16);
  for (int32_t i = 0; i < 5; ++i) GMP_CHECK_OK(queue.Push(MakeItem(i)));
  BatchingOptions options;
  options.max_batch_size = 8;
  options.max_queue_delay = std::chrono::microseconds(0);
  MicroBatcher batcher(&queue, options);
  auto batch = batcher.NextBatch();
  EXPECT_EQ(batch.requests.size(), 5u);
  EXPECT_TRUE(batch.expired.empty());
}

TEST(MicroBatcherTest, RespectsMaxBatchSize) {
  RequestQueue queue(16);
  for (int32_t i = 0; i < 5; ++i) GMP_CHECK_OK(queue.Push(MakeItem(i)));
  BatchingOptions options;
  options.max_batch_size = 2;
  options.max_queue_delay = std::chrono::microseconds(0);
  MicroBatcher batcher(&queue, options);
  EXPECT_EQ(batcher.NextBatch().requests.size(), 2u);
  EXPECT_EQ(batcher.NextBatch().requests.size(), 2u);
  EXPECT_EQ(batcher.NextBatch().requests.size(), 1u);
}

TEST(MicroBatcherTest, BatchSizeOverrideShrinksTheCap) {
  RequestQueue queue(16);
  for (int32_t i = 0; i < 5; ++i) GMP_CHECK_OK(queue.Push(MakeItem(i)));
  BatchingOptions options;
  options.max_batch_size = 8;
  options.max_queue_delay = std::chrono::microseconds(0);
  MicroBatcher batcher(&queue, options);
  // Degraded-mode override caps the batch below the configured maximum; 0
  // means "no override".
  EXPECT_EQ(batcher.NextBatch(2).requests.size(), 2u);
  EXPECT_EQ(batcher.NextBatch(0).requests.size(), 3u);
}

TEST(MicroBatcherTest, SeparatesExpiredRequests) {
  RequestQueue queue(16);
  PendingRequest expired = MakeItem(0);
  expired.request.deadline = Deadline::After(std::chrono::microseconds(-1));
  GMP_CHECK_OK(queue.Push(std::move(expired)));
  GMP_CHECK_OK(queue.Push(MakeItem(1)));
  BatchingOptions options;
  options.max_batch_size = 8;
  options.max_queue_delay = std::chrono::microseconds(0);
  MicroBatcher batcher(&queue, options);
  auto batch = batcher.NextBatch();
  EXPECT_EQ(batch.expired.size(), 1u);
  ASSERT_EQ(batch.requests.size(), 1u);
  EXPECT_EQ(batch.requests[0].request.indices[0], 1);
}

TEST(MicroBatcherTest, EmptyBatchSignalsShutdown) {
  RequestQueue queue(4);
  queue.Close();
  MicroBatcher batcher(&queue, BatchingOptions{});
  EXPECT_TRUE(batcher.NextBatch().empty());
}

}  // namespace
}  // namespace gmpsvm
