// MicroBatcher: turns the request queue's stream of single-instance requests
// into prediction tiles. This is where the paper's prediction-phase
// economics (Section 3.3.3) meet the serving path: requests that queue up
// behind a busy worker share one tile, its device transfers and its
// per-call streams. A tile's kernel block still costs one row of pool
// kernel values per request, so a batch costs about its rows; by default a
// free worker takes whatever is queued, and a positive `max_queue_delay`
// holds a batch open for batch-mates at the price of at most that much
// extra latency for the earliest request.
//
// The batcher also retires requests whose deadline passed while queued —
// they are returned separately so the worker can fail them without spending
// prediction work on them.

#ifndef GMPSVM_SERVE_MICRO_BATCHER_H_
#define GMPSVM_SERVE_MICRO_BATCHER_H_

#include <chrono>
#include <vector>

#include "serve/request_queue.h"

namespace gmpsvm {

struct BatchingOptions {
  // Upper bound on requests per tile; 1 disables coalescing (every request
  // is its own Predict call — the baseline the serve bench compares against).
  int max_batch_size = 32;

  // How long a batch may stay open waiting to fill, measured from the
  // admission of its oldest request. Zero (the default) means "take whatever
  // is queued right now": no added latency, and batches form from the
  // backlog that builds while every worker is busy.
  std::chrono::microseconds max_queue_delay{0};
};

class MicroBatcher {
 public:
  struct Batch {
    // Requests to predict, in admission order.
    std::vector<PendingRequest> requests;
    // Requests whose deadline expired while queued; fail, don't predict.
    std::vector<PendingRequest> expired;

    bool empty() const { return requests.empty() && expired.empty(); }
  };

  // The queue must outlive the batcher.
  MicroBatcher(RequestQueue* queue, const BatchingOptions& options)
      : queue_(queue), options_(options) {}

  // Blocks for the next batch. An empty() batch means the queue is closed
  // and fully drained — the consumer should exit. A positive
  // `max_batch_override` caps this batch below options().max_batch_size
  // (degraded-mode servers shrink their batches after repeated faults);
  // 0 uses the configured maximum.
  Batch NextBatch(size_t max_batch_override = 0);

  const BatchingOptions& options() const { return options_; }

 private:
  RequestQueue* queue_;
  BatchingOptions options_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SERVE_MICRO_BATCHER_H_
