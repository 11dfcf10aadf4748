// A small fixed-size thread pool and ParallelFor, the one way host work
// splits. The simulated-device executor owns a pool when its host_threads
// exceeds 1 (SimExecutor::host_pool) and passes it to every op that may
// split; the simulated-time accounting lives in the executor layer, not
// here.
//
// Split rule: a call states the work of its whole range as the flops it
// charges. It runs inline on the caller when the pool is null or has one
// thread, or when that work makes fewer than two chunks of kMinChunkFlops;
// otherwise [0, n) splits into at most four contiguous chunks per thread,
// each of at least kMinChunkFlops at the range's mean work per item. A
// dispatch costs tens of microseconds of caller wall (bench_micro's
// BM_ParallelForDispatch), so smaller calls would pay more to split than
// they save.
//
// Determinism contract: chunk boundaries depend only on (n, flops, pool
// size), never on timing. Which thread executes which chunk is
// scheduling-dependent, so bodies must only write disjoint, index-derived
// locations; any floating-point reduction must be merged by the caller in a
// fixed (index) order after ParallelFor returns. Under that contract the
// results are byte-identical for every pool size, including none.

#ifndef GMPSVM_COMMON_THREAD_POOL_H_
#define GMPSVM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gmpsvm {

// The least work, in charged flops, that one dispatched chunk carries: 2^18.
// docs/performance.md ("Split rule") has the measurement that sets it.
inline constexpr double kMinChunkFlops = 262144.0;

class ThreadPool;

// Runs `body(begin, end)` over contiguous chunks covering [0, n) and returns
// once every chunk has completed. `flops` is the work of the whole range;
// the split rule above decides whether and how finely it splits. `pool` may
// be null. The caller runs chunks too, so ParallelFor may be called from a
// body (nested regions) or from several threads at once without deadlock.
void ParallelFor(ThreadPool* pool, int64_t n, double flops,
                 const std::function<void(int64_t, int64_t)>& body);

class ThreadPool {
 public:
  // Creates max(1, num_threads) workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  friend void ParallelFor(ThreadPool* pool, int64_t n, double flops,
                          const std::function<void(int64_t, int64_t)>& body);

  // Enqueues a task for one worker. Tasks must not throw.
  void Schedule(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;  // signals workers: work available / stop
  bool stop_ = false;
};

}  // namespace gmpsvm

#endif  // GMPSVM_COMMON_THREAD_POOL_H_
