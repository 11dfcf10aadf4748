// ReplicaRouter: the one owner of a serving replica set.
//
// One InferenceServer replica per device model, all serving the same
// ModelRegistry (a hot-swap takes effect on every replica's next batch), with
// least-loaded dispatch: Submit routes each request to the replica with the
// shallowest queue (ties to the lowest replica index) and falls through to
// the next-least-loaded replica when a queue rejects with
// kResourceExhausted — a request is only rejected when every replica is full.
// The set is dynamic: AddReplica grows it while serving, RetireNewest
// drains-and-retires the newest replica, and Pause/Resume gate every replica
// (new replicas inherit the gate). The FleetServer's autoscaler drives both.
//
// Per-request results stay bit-identical to a direct MpSvmPredictor call
// whichever replica answers (the single-server guarantee, per replica).
//
// Observability: each replica publishes its ServeStats and per-worker device
// counters into a private registry, so series from different replicas never
// collide; the registries outlive retirement (replica_registries()). The
// router publishes its own routing counters and queue-depth gauges labeled
// {device=<replica index>} into RouterOptions::metrics. When a trace
// recorder is shared, the n-th replica ever added traces into lanes
// lane_base + n * kLanesPerWorker * num_workers, one band per replica.

#ifndef GMPSVM_SERVE_REPLICA_ROUTER_H_
#define GMPSVM_SERVE_REPLICA_ROUTER_H_

#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/server.h"

namespace gmpsvm {

struct RouterOptions {
  // Template applied to every replica. Its executor_model is ignored when
  // `devices` is non-empty; its metrics pointer is ignored (replicas keep
  // private registries — see the header comment); its lane_base is the base
  // of the first replica's band.
  ServeOptions serve;

  // One replica per device model, created by Start(). Empty = one replica on
  // serve.executor_model.
  std::vector<ExecutorModel> devices;

  // Router-level metrics: gmpsvm_router_* series labeled {device=...}.
  // Null disables publication.
  obs::MetricsRegistry* metrics = nullptr;
};

class ReplicaRouter {
 public:
  // The registry must outlive the router.
  ReplicaRouter(ModelRegistry* registry, RouterOptions options);
  ~ReplicaRouter();

  ReplicaRouter(const ReplicaRouter&) = delete;
  ReplicaRouter& operator=(const ReplicaRouter&) = delete;

  // Creates and starts one replica per configured device; fails on the
  // first replica that cannot start. The router serves only between Start()
  // and Shutdown().
  Status Start();

  // Adds one started replica on `device`, with the next lane band.
  // kFailedPrecondition unless the router is serving.
  Status AddReplica(const ExecutorModel& device);

  // Drains and retires the newest replica: it answers every request it
  // accepted while new submissions route to the survivors. Its registry
  // stays readable. Refuses to retire the last replica.
  Status RetireNewest();

  // Least-loaded admission across replicas (see header comment), with
  // InferenceServer::Submit's arguments: the request resolves against
  // `model_name`, and `on_complete` runs once with its terminal result on
  // the answering replica's worker thread. Fails with kFailedPrecondition
  // when the router is not serving, and with the last replica's
  // kResourceExhausted only when every replica rejected.
  Result<std::future<Result<PredictResponse>>> Submit(
      std::span<const int32_t> indices, std::span<const double> values,
      Deadline deadline = Deadline::Infinite(), std::string model_name = {},
      CompletionCallback on_complete = nullptr);

  // Submit + wait, flattening admission and per-request errors.
  Result<PredictResponse> Predict(std::span<const int32_t> indices,
                                  std::span<const double> values,
                                  Deadline deadline = Deadline::Infinite());

  // Gates every replica's consumption (admission unaffected); replicas added
  // while paused start paused.
  void Pause();
  void Resume();

  // Drains and retires every replica. Idempotent; returns the first error.
  Status Shutdown();

  // Live replicas (0 before Start and after Shutdown).
  int num_replicas() const;

  // Queued requests and queue capacity summed over the live replicas.
  size_t queue_depth() const;
  size_t queue_capacity() const;

  // Live replica r; valid until it retires or the router shuts down.
  InferenceServer* replica(int r);

  // Requests dispatched to live replica r so far.
  int64_t routed(int r) const;

  // The private registry of every replica ever added, live or retired, in
  // the order they were added. Valid for the router's lifetime.
  std::vector<obs::MetricsRegistry*> replica_registries() const;

 private:
  struct Replica {
    std::unique_ptr<InferenceServer> server;
    int64_t routed = 0;
    obs::Counter* routed_counter = nullptr;  // null without router metrics
    obs::Gauge* depth_gauge = nullptr;
  };

  // Creates, starts and appends one replica. Requires mu_.
  Status AddReplicaLocked(const ExecutorModel& device);

  ModelRegistry* registry_;
  RouterOptions options_;

  mutable std::mutex mu_;
  std::vector<Replica> replicas_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries_;
  bool started_ = false;
  bool shut_down_ = false;
  bool paused_ = false;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SERVE_REPLICA_ROUTER_H_
