#include "serve/server.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace gmpsvm {

Result<PredictResponse> AwaitResponse(
    Result<std::future<Result<PredictResponse>>> submitted, Deadline deadline) {
  GMP_ASSIGN_OR_RETURN(auto future, std::move(submitted));
  // Wait in bounded slices: Deadline::Remaining() of an infinite deadline is
  // duration::max, which overflows wait_for's internal now() + duration
  // arithmetic on common implementations.
  while (future.wait_for(deadline.BoundedRemaining(std::chrono::seconds(1))) !=
         std::future_status::ready) {
    if (deadline.Expired()) {
      return Status::DeadlineExceeded("request deadline expired while waiting");
    }
  }
  return future.get();
}

InferenceServer::InferenceServer(ModelRegistry* registry, ServeOptions options)
    : registry_(registry),
      options_(std::move(options)),
      queue_(options_.queue_capacity),
      batcher_(&queue_, options_.batching),
      stats_(options_.metrics) {
  options_.num_workers = std::max(1, options_.num_workers);
  options_.max_request_retries = std::max(0, options_.max_request_retries);
  options_.degraded_after_faults = std::max(1, options_.degraded_after_faults);
  options_.recover_after_successes =
      std::max(1, options_.recover_after_successes);
  effective_max_batch_.store(std::max(1, options_.batching.max_batch_size));
  stats_.SetEffectiveMaxBatch(effective_max_batch_.load());
}

InferenceServer::~InferenceServer() { (void)Shutdown(); }

Status InferenceServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (shut_down_) return Status::FailedPrecondition("server was shut down");
  if (started_) return Status::FailedPrecondition("server already started");
  // Fail fast on malformed serve-wide prediction options instead of failing
  // every batch on a worker thread.
  GMP_RETURN_NOT_OK(options_.predict.Validate());
  started_ = true;
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  return Status::OK();
}

Result<std::future<Result<PredictResponse>>> InferenceServer::Submit(
    std::span<const int32_t> indices, std::span<const double> values,
    Deadline deadline, std::string model_name,
    CompletionCallback on_complete) {
  if (indices.size() != values.size()) {
    stats_.RecordRejected();
    return Status::InvalidArgument("indices/values size mismatch");
  }
  for (size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] < 0 || (i > 0 && indices[i] <= indices[i - 1])) {
      stats_.RecordRejected();
      return Status::InvalidArgument(
          "feature indices must be nonnegative and strictly increasing");
    }
  }

  PendingRequest item;
  item.request.indices.assign(indices.begin(), indices.end());
  item.request.values.assign(values.begin(), values.end());
  item.request.deadline = deadline;
  item.request.model_name = std::move(model_name);
  item.on_complete = std::move(on_complete);
  item.enqueue_time = MonotonicNow();
  std::future<Result<PredictResponse>> future = item.promise.get_future();

  const Status pushed = queue_.Push(std::move(item));
  if (!pushed.ok()) {
    stats_.RecordRejected();
    return pushed;
  }
  stats_.RecordAdmitted(queue_.size());
  return future;
}

Result<PredictResponse> InferenceServer::Predict(
    std::span<const int32_t> indices, std::span<const double> values,
    Deadline deadline) {
  return AwaitResponse(Submit(indices, values, deadline), deadline);
}

void InferenceServer::Pause() { queue_.Pause(); }

void InferenceServer::Resume() { queue_.Resume(); }

Status InferenceServer::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (shut_down_) return Status::OK();
    shut_down_ = true;
    workers = std::move(workers_);
  }
  queue_.Close();
  queue_.Resume();  // a paused queue must still drain
  // WorkerLoop exits once the queue is drained.
  for (std::thread& worker : workers) worker.join();
  return Status::OK();
}

void InferenceServer::Respond(PendingRequest item,
                              Result<PredictResponse> response) {
  if (response.ok()) {
    response->total_seconds = SecondsBetween(item.enqueue_time, MonotonicNow());
  }
  if (item.on_complete) item.on_complete(response);
  item.promise.set_value(std::move(response));
}

void InferenceServer::NoteBatchFault() {
  stats_.RecordFault();
  consecutive_successes_.store(0);
  if (consecutive_faults_.fetch_add(1) + 1 < options_.degraded_after_faults) {
    return;
  }
  consecutive_faults_.store(0);
  const int current = effective_max_batch_.load();
  const int next = std::max(1, current / 2);
  if (next < current) {
    effective_max_batch_.store(next);
    stats_.RecordDegradedEntry();
    stats_.SetEffectiveMaxBatch(next);
  }
}

void InferenceServer::NoteBatchSuccess() {
  consecutive_faults_.store(0);
  if (consecutive_successes_.fetch_add(1) + 1 <
      options_.recover_after_successes) {
    return;
  }
  consecutive_successes_.store(0);
  const int full = std::max(1, options_.batching.max_batch_size);
  const int current = effective_max_batch_.load();
  if (current < full) {
    const int next = std::min(full, current * 2);
    effective_max_batch_.store(next);
    stats_.SetEffectiveMaxBatch(next);
  }
}

void InferenceServer::WorkerLoop(int worker_index) {
  SimExecutor executor(options_.executor_model);
  if (options_.fault != nullptr) {
    executor.SetFaultInjector(options_.fault);
  }
  obs::TraceRecorder* trace = options_.trace;
  const int host_lane = options_.lane_base + worker_index;
  if (trace != nullptr) {
    executor.SetSpanRecorder(
        trace,
        options_.lane_base + worker_index * ServeOptions::kLanesPerWorker,
        ServeOptions::kLanesPerWorker);
  }
  std::vector<SparseRowView> rows;

  while (true) {
    double wait_t0 = trace != nullptr ? trace->HostSecondsNow() : 0.0;
    MicroBatcher::Batch batch = batcher_.NextBatch(
        static_cast<size_t>(effective_max_batch_.load()));
    if (batch.empty()) break;  // queue closed and drained
    if (trace != nullptr) {
      obs::SpanEvent wait;
      wait.name = "queue_wait";
      wait.lane = host_lane;
      wait.start_seconds = wait_t0;
      wait.end_seconds = trace->HostSecondsNow();
      trace->RecordSpan(wait);
    }

    const MonotonicTime formed_at = MonotonicNow();
    for (auto& item : batch.expired) {
      stats_.RecordExpired();
      Respond(std::move(item),
              Status::DeadlineExceeded("request expired while queued"));
    }
    if (batch.requests.empty()) continue;

    const int batch_size = static_cast<int>(batch.requests.size());
    stats_.RecordBatch(batch_size);

    // The queue forms model-homogeneous batches, so the first request's
    // model name (empty = server default) speaks for the whole batch.
    const std::string& batch_model =
        batch.requests.front().request.model_name.empty()
            ? options_.model_name
            : batch.requests.front().request.model_name;
    auto handle = registry_->Get(batch_model);
    if (!handle.ok()) {
      for (auto& item : batch.requests) {
        stats_.RecordFailed();
        Respond(std::move(item), handle.status());
      }
      continue;
    }

    rows.clear();
    rows.reserve(batch.requests.size());
    for (const auto& item : batch.requests) {
      rows.push_back(SparseRowView{item.request.indices, item.request.values});
    }

    const MpSvmPredictor& predictor = *handle->predictor;
    const PredictOptions predict =
        options_.predict_options_resolver
            ? options_.predict_options_resolver(*handle)
            : options_.predict;
    Result<PredictResult> result = [&] {
      obs::HostSpan span(trace,
                         StrPrintf("predict batch=%d", batch_size),
                         host_lane);
      return predictor.PredictRows(rows, &executor, predict);
    }();
    if (options_.metrics != nullptr) {
      executor.counters().PublishTo(
          options_.metrics, {{"worker", std::to_string(worker_index)}});
    }
    obs::HostSpan respond_span(trace, "respond", host_lane);
    if (!result.ok()) {
      if (result.status().IsUnavailable()) {
        NoteBatchFault();
      }
      // A malformed row or an injected fault fails the whole tile; recover
      // per-request so the unaffected requests still succeed. Transient
      // (kUnavailable) failures get a bounded retry budget, cut short once
      // the request's deadline expires — either way the request ends with a
      // terminal Result.
      for (size_t i = 0; i < batch.requests.size(); ++i) {
        auto single =
            predictor.PredictRows({&rows[i], 1}, &executor, predict);
        int retries_left = options_.max_request_retries;
        while (!single.ok() && single.status().IsUnavailable() &&
               retries_left > 0 &&
               !batch.requests[i].request.deadline.Expired()) {
          --retries_left;
          stats_.RecordRetry();
          single =
              predictor.PredictRows({&rows[i], 1}, &executor, predict);
        }
        if (single.ok()) {
          PredictResponse response;
          const int k = single->num_classes;
          response.probabilities.assign(single->probabilities.begin(),
                                        single->probabilities.begin() + k);
          response.label = single->labels[0];
          response.model_version = handle->version;
          response.batch_size = 1;
          response.queue_seconds =
              SecondsBetween(batch.requests[i].enqueue_time, formed_at);
          stats_.RecordCompleted(
              response.queue_seconds,
              SecondsBetween(batch.requests[i].enqueue_time, MonotonicNow()));
          Respond(std::move(batch.requests[i]), std::move(response));
        } else {
          stats_.RecordFailed();
          Respond(std::move(batch.requests[i]), single.status());
        }
      }
      continue;
    }
    NoteBatchSuccess();

    const int k = result->num_classes;
    for (size_t i = 0; i < batch.requests.size(); ++i) {
      PredictResponse response;
      response.probabilities.assign(
          result->probabilities.begin() + static_cast<int64_t>(i) * k,
          result->probabilities.begin() + static_cast<int64_t>(i + 1) * k);
      response.label = result->labels[i];
      response.model_version = handle->version;
      response.batch_size = batch_size;
      response.queue_seconds =
          SecondsBetween(batch.requests[i].enqueue_time, formed_at);
      const double total =
          SecondsBetween(batch.requests[i].enqueue_time, MonotonicNow());
      stats_.RecordCompleted(response.queue_seconds, total);
      Respond(std::move(batch.requests[i]), std::move(response));
    }
  }
}

}  // namespace gmpsvm
