#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

namespace gmpsvm {
namespace {

// Per-call completion state. Chunk c covers [c * n / num_chunks,
// (c + 1) * n / num_chunks); workers and the caller claim chunks with an
// atomic cursor. Helpers hold a shared_ptr so a straggler that wakes after
// the call returned (having claimed nothing) touches only this state, never
// the caller's stack.
struct ParallelForState {
  int64_t n = 0;
  int64_t num_chunks = 0;
  const std::function<void(int64_t, int64_t)>* body = nullptr;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  int64_t done = 0;

  // Claims and runs chunks until none remain. Returns after this thread can
  // no longer contribute; other threads may still be inside `body`.
  void RunChunks() {
    for (;;) {
      const int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      (*body)(c * n / num_chunks, (c + 1) * n / num_chunks);
      std::lock_guard<std::mutex> lock(mu);
      if (++done == num_chunks) done_cv.notify_all();
    }
  }
};

// Chunks [0, n) splits into: at most four per thread, each at least
// min_items items long, where min_items items carry kMinChunkFlops at the
// range's mean work per item. 1 means run inline.
int64_t NumChunks(const ThreadPool* pool, int64_t n, double flops) {
  if (pool == nullptr || pool->num_threads() <= 1 ||
      !(flops >= 2.0 * kMinChunkFlops)) {
    return 1;
  }
  const int64_t min_items = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil(kMinChunkFlops * static_cast<double>(n) / flops)));
  return std::min<int64_t>(4 * int64_t{pool->num_threads()}, n / min_items);
}

}  // namespace

void ParallelFor(ThreadPool* pool, int64_t n, double flops,
                 const std::function<void(int64_t, int64_t)>& body) {
  if (n <= 0) return;
  const int64_t num_chunks = NumChunks(pool, n, flops);
  if (num_chunks < 2) {
    body(0, n);
    return;
  }
  auto state = std::make_shared<ParallelForState>();
  state->n = n;
  state->num_chunks = num_chunks;
  state->body = &body;
  // The caller runs chunks too, so at most num_chunks - 1 helpers are useful.
  const int64_t helpers =
      std::min<int64_t>(pool->num_threads(), num_chunks - 1);
  for (int64_t i = 0; i < helpers; ++i) {
    pool->Schedule([state] { state->RunChunks(); });
  }
  state->RunChunks();
  // `body` (and the caller's stack) must stay alive until every claimed chunk
  // has finished, not just until no chunks remain unclaimed.
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->done == state->num_chunks; });
}

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace gmpsvm
