// InferenceServer: the in-process serving front end over MpSvmPredictor.
//
//   client threads ──Submit()──▶ RequestQueue (bounded, admission control)
//                                    │
//                              MicroBatcher (coalesce ≤ max_batch_size,
//                                    │        wait ≤ max_queue_delay)
//                              worker threads (one std::thread and one
//                                    │      simulated executor per worker)
//                              MpSvmPredictor::PredictRows through a
//                                    │      ModelRegistry snapshot's own
//                                    │      predictor (hot-swappable)
//                               std::future<Result<PredictResponse>> per
//                                          request
//
// Guarantees:
//   * a request accepted by Submit() always receives a response — graceful
//     Shutdown() drains the queue before workers exit;
//   * a full queue rejects at the door with kResourceExhausted (the future
//     is never created), so overload cannot grow memory or tail latency
//     without bound;
//   * per-request results are bit-identical to calling
//     MpSvmPredictor::Predict directly on the same rows, whatever batch
//     composition the coalescing produced;
//   * model hot-swap (ModelRegistry::Register under a served name) is atomic
//     per batch: a batch runs wholly against one model snapshot.

#ifndef GMPSVM_SERVE_SERVER_H_
#define GMPSVM_SERVE_SERVER_H_

#include <atomic>
#include <functional>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/predictor.h"
#include "device/executor.h"
#include "fault/fault_injector.h"
#include "obs/span.h"
#include "serve/micro_batcher.h"
#include "serve/model_registry.h"
#include "serve/request_queue.h"
#include "serve/serve_stats.h"

namespace gmpsvm {

struct ServeOptions {
  // Name resolved against the registry for batches of requests that do not
  // carry their own model_name (so a hot-swapped model takes effect on the
  // next batch without a restart). Requests submitted with an explicit model
  // name override this per batch — see PredictRequest::model_name.
  std::string model_name = "default";

  // Worker threads, each with its own simulated-device executor.
  int num_workers = 2;

  // Admission bound: Submit() rejects with kResourceExhausted beyond this.
  size_t queue_capacity = 1024;

  BatchingOptions batching;

  // Passed through to MpSvmPredictor for every batch.
  PredictOptions predict;

  // Optional per-batch hook: the PredictOptions a batch runs with, given the
  // model snapshot it resolved to (the fleet returns the tenant's override
  // bound to its shared SV store). Unset = every batch runs with `predict`.
  // The returned options must already be valid — the fleet validates them
  // at tenant registration. Called on worker threads: must be thread-safe
  // and outlive the server.
  std::function<PredictOptions(const ModelHandle&)> predict_options_resolver;

  // Simulated device each worker runs on.
  ExecutorModel executor_model = ExecutorModel::TeslaP100();

  // Optional shared registry: serve counters/histograms publish here (and
  // each worker publishes its device counters labeled {worker=...}); nullptr
  // keeps them in a server-private registry reachable via stats().registry().
  obs::MetricsRegistry* metrics = nullptr;

  // Optional span sink: workers record per-batch queue_wait/predict/respond
  // host spans on a per-worker lane, and each worker's simulated device
  // feeds its stream spans into the same recorder (lane base
  // lane_base + kLanesPerWorker * worker), yielding one merged Chrome trace.
  // Must outlive the server.
  obs::TraceRecorder* trace = nullptr;

  // Lanes each worker's simulated device occupies in a shared trace.
  static constexpr int kLanesPerWorker = 16;

  // Offset added to every lane this server emits (host and device). Lets
  // several servers — e.g. a ReplicaRouter's replicas — share one recorder
  // without their rows colliding; each replica takes a band of
  // kLanesPerWorker * num_workers lanes.
  int lane_base = 0;

  // --- Fault recovery -------------------------------------------------------
  // Optional injector attached to every worker's simulated device, so
  // prediction allocations can fail transiently and streams can take latency
  // spikes. Must outlive the server.
  fault::FaultInjector* fault = nullptr;

  // Per-request retry budget after a transient (kUnavailable) prediction
  // failure. Retries stop early once the request's deadline has expired; the
  // request then fails with the fault's status (still a terminal Result —
  // accepted requests always get an answer).
  int max_request_retries = 1;

  // Degraded mode: after this many consecutive transient batch faults the
  // server halves its effective max batch size (floor 1); after
  // recover_after_successes consecutive fault-free batches it doubles back
  // toward the configured maximum.
  int degraded_after_faults = 3;
  int recover_after_successes = 8;
};

// Waits for a submitted request and flattens admission and per-request
// errors into one Result: the shared tail of every Predict convenience
// (InferenceServer, ReplicaRouter, FleetServer).
Result<PredictResponse> AwaitResponse(
    Result<std::future<Result<PredictResponse>>> submitted, Deadline deadline);

class InferenceServer {
 public:
  // The registry must outlive the server.
  InferenceServer(ModelRegistry* registry, ServeOptions options);

  // Drains and joins (Shutdown).
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Spawns the worker pool. kFailedPrecondition if already started or shut
  // down. Requests submitted before Start() wait in the queue.
  Status Start();

  // Admission. Copies the sparse row (0-based, strictly increasing indices)
  // and returns a future the worker pool fulfils; the future resolves to
  // Result<PredictResponse> so per-request failures (deadline expiry, model
  // errors) carry library Status codes. Submit itself fails fast with
  // kResourceExhausted (queue full), kInvalidArgument (malformed row), or
  // kFailedPrecondition (shut down) — no future is created on failure.
  //
  // Multi-model admission: the request resolves against `model_name`
  // (batches are formed per model, so it never shares a tile with another
  // model's requests), and `on_complete` — if non-empty — runs on the worker
  // thread with the terminal result just before the future resolves. An
  // empty model_name falls back to options().model_name.
  Result<std::future<Result<PredictResponse>>> Submit(
      std::span<const int32_t> indices, std::span<const double> values,
      Deadline deadline = Deadline::Infinite(), std::string model_name = {},
      CompletionCallback on_complete = nullptr);

  // Convenience: Submit + wait, flattening admission and per-request errors
  // into one Result.
  Result<PredictResponse> Predict(std::span<const int32_t> indices,
                                  std::span<const double> values,
                                  Deadline deadline = Deadline::Infinite());

  // Consumption gate (admission unaffected). Pause lets tests and
  // maintenance windows build a backlog deterministically; Resume releases
  // the workers.
  void Pause();
  void Resume();

  // Stops admissions, drains every accepted request, joins the workers.
  // Idempotent; returns the first error encountered (none expected).
  Status Shutdown();

  const ServeStats& stats() const { return stats_; }
  size_t queue_depth() const { return queue_.size(); }
  const ServeOptions& options() const { return options_; }

  // Current degraded-mode batch cap (== batching.max_batch_size when
  // healthy).
  int effective_max_batch() const { return effective_max_batch_.load(); }

 private:
  void WorkerLoop(int worker_index);
  static void Respond(PendingRequest item, Result<PredictResponse> response);

  // Degraded-mode bookkeeping, called by workers per batch outcome.
  void NoteBatchFault();
  void NoteBatchSuccess();

  ModelRegistry* registry_;
  ServeOptions options_;
  RequestQueue queue_;
  MicroBatcher batcher_;
  ServeStats stats_;
  std::vector<std::thread> workers_;
  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool shut_down_ = false;

  std::atomic<int> effective_max_batch_{1};
  std::atomic<int> consecutive_faults_{0};
  std::atomic<int> consecutive_successes_{0};
};

}  // namespace gmpsvm

#endif  // GMPSVM_SERVE_SERVER_H_
