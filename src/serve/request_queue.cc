#include "serve/request_queue.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace gmpsvm {

Status RequestQueue::Push(PendingRequest item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return Status::FailedPrecondition("request queue is closed");
    }
    if (items_.size() >= capacity_) {
      return Status::ResourceExhausted(
          "request queue full (" + std::to_string(capacity_) + " pending)");
    }
    items_.push_back(std::move(item));
    ++changes_;
  }
  cv_.notify_one();
  window_cv_.notify_all();
  return Status::OK();
}

bool RequestQueue::Pop(PendingRequest* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return closed_ || (!paused_ && !items_.empty()); });
  if (items_.empty()) return false;  // closed and drained
  *out = std::move(items_.front());
  items_.pop_front();
  return true;
}

size_t RequestQueue::PopBatch(size_t max_batch,
                              MonotonicClock::duration max_delay,
                              std::vector<PendingRequest>* out) {
  if (max_batch == 0) max_batch = 1;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return closed_ || (!paused_ && !items_.empty()); });
  if (items_.empty()) return 0;  // closed and drained

  // The batch closes when full or when the oldest member has been waiting
  // `max_delay` since admission; a request that already waited that long in
  // the queue leaves immediately with whatever is on hand. SafeTimeAdd keeps
  // an effectively-infinite max_delay (e.g. duration::max from an infinite
  // deadline) from overflowing the time_point arithmetic.
  const MonotonicTime batch_deadline =
      SafeTimeAdd(items_.front().enqueue_time, max_delay);
  // Batches are homogeneous in model name so every batch predicts against a
  // single registry snapshot even when requests for many models share the
  // queue: the oldest queued request picks the batch's model, and takes
  // extract only matching requests, leaving the others in admission order
  // for the next consumer.
  const std::string batch_model = items_.front().request.model_name;
  size_t popped = 0;
  auto take_available = [&] {
    for (auto it = items_.begin(); popped < max_batch && it != items_.end();) {
      if (it->request.model_name == batch_model) {
        out->push_back(std::move(*it));
        it = items_.erase(it);
        ++popped;
      } else {
        ++it;
      }
    }
  };
  take_available();
  while (popped < max_batch && !closed_ && MonotonicNow() < batch_deadline) {
    // Wait in bounded slices rather than handing a potentially huge
    // time_point to wait_until (whose clock conversions can overflow).
    const MonotonicTime slice = std::min(
        batch_deadline, SafeTimeAdd(MonotonicNow(), std::chrono::seconds(1)));
    // Wake on a change only: queued requests for other models, or a pause,
    // leave the queue as this batch last saw it.
    const uint64_t seen = changes_;
    window_cv_.wait_until(lock, slice, [&] { return changes_ != seen; });
    if (!paused_) take_available();
  }
  return popped;
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    ++changes_;
  }
  cv_.notify_all();
  window_cv_.notify_all();
}

void RequestQueue::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void RequestQueue::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    ++changes_;
  }
  cv_.notify_all();
  window_cv_.notify_all();
}

size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

}  // namespace gmpsvm
