// Bounded MPMC queue of pending predict requests — the admission-control
// point of the serving layer. Producers (client threads) push without
// blocking: a full queue rejects immediately with kResourceExhausted so
// overload sheds load at the door instead of growing latency without bound.
// Consumers (worker threads) block for work; Close() stops admissions while
// letting consumers drain everything already accepted, which is what makes
// graceful shutdown lossless.

#ifndef GMPSVM_SERVE_REQUEST_QUEUE_H_
#define GMPSVM_SERVE_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "serve/request.h"

namespace gmpsvm {

class RequestQueue {
 public:
  explicit RequestQueue(size_t capacity) : capacity_(capacity) {}

  // Non-blocking admission. kResourceExhausted when full; kFailedPrecondition
  // after Close().
  Status Push(PendingRequest item);

  // Blocks until an item is available (returns true) or the queue is closed
  // and empty (returns false). Paused queues hold consumers even when items
  // are queued — Close() overrides the pause so draining always proceeds.
  bool Pop(PendingRequest* out);

  // Pops up to `max_batch` items for one micro-batch. Blocks for the first
  // item like Pop(); then keeps the batch open until it is full or
  // `max_delay` has elapsed since the *oldest* item in it was enqueued (so
  // batching adds at most `max_delay` of queueing latency to any request).
  // An open batch sleeps between changes to the queue (a push, Resume or
  // Close), however many other models' requests are queued. Returns the
  // number of items appended to `out`; 0 means closed-and-empty.
  size_t PopBatch(size_t max_batch, MonotonicClock::duration max_delay,
                  std::vector<PendingRequest>* out);

  // Stops admissions; consumers drain the remainder. Idempotent.
  void Close();

  // Consumption gate: while paused, Pop/PopBatch block even when items are
  // queued (admission is unaffected). Used for deterministic overflow tests
  // and stop-the-world maintenance.
  void Pause();
  void Resume();

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // wakes consumers: item pushed / closed / resumed
  // Wakes consumers holding a batch open, on every change.
  std::condition_variable window_cv_;
  // Counts pushes, Resumes and Closes: an open batch rescans only after it
  // moves.
  uint64_t changes_ = 0;
  std::deque<PendingRequest> items_;
  bool closed_ = false;
  bool paused_ = false;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SERVE_REQUEST_QUEUE_H_
