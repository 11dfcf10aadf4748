#include "serve/replica_router.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace gmpsvm {

ReplicaRouter::ReplicaRouter(ModelRegistry* registry, RouterOptions options)
    : registry_(registry), options_(std::move(options)) {}

ReplicaRouter::~ReplicaRouter() { (void)Shutdown(); }

Status ReplicaRouter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shut_down_) return Status::FailedPrecondition("router was shut down");
  if (started_) return Status::FailedPrecondition("router already started");
  started_ = true;
  std::vector<ExecutorModel> devices = options_.devices;
  if (devices.empty()) devices.push_back(options_.serve.executor_model);
  for (const ExecutorModel& device : devices) {
    GMP_RETURN_NOT_OK(AddReplicaLocked(device));
  }
  return Status::OK();
}

Status ReplicaRouter::AddReplica(const ExecutorModel& device) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || shut_down_) {
    return Status::FailedPrecondition("router is not serving");
  }
  return AddReplicaLocked(device);
}

Status ReplicaRouter::AddReplicaLocked(const ExecutorModel& device) {
  // Lane bands follow the replicas ever added, so a replica never reuses a
  // retired one's rows in a shared trace.
  const int band = static_cast<int>(registries_.size());
  auto stats = std::make_unique<obs::MetricsRegistry>();
  ServeOptions serve = options_.serve;
  serve.executor_model = device;
  serve.metrics = stats.get();
  serve.lane_base = options_.serve.lane_base +
                    band * std::max(1, serve.num_workers) *
                        ServeOptions::kLanesPerWorker;
  Replica replica;
  replica.server =
      std::make_unique<InferenceServer>(registry_, std::move(serve));
  if (paused_) replica.server->Pause();
  GMP_RETURN_NOT_OK(replica.server->Start());
  if (options_.metrics != nullptr) {
    const obs::Labels labels = {{"device", std::to_string(replicas_.size())}};
    replica.routed_counter = options_.metrics->GetCounter(
        "gmpsvm_router_requests_routed_total",
        "Requests dispatched to a replica by the least-loaded router.", labels);
    replica.depth_gauge = options_.metrics->GetGauge(
        "gmpsvm_router_replica_queue_depth",
        "Peak replica queue depth observed at routing decisions.", labels);
  }
  registries_.push_back(std::move(stats));
  replicas_.push_back(std::move(replica));
  return Status::OK();
}

Status ReplicaRouter::RetireNewest() {
  std::unique_ptr<InferenceServer> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (replicas_.size() < 2) {
      return Status::FailedPrecondition("router keeps at least one replica");
    }
    victim = std::move(replicas_.back().server);
    replicas_.pop_back();
  }
  // Drain outside the lock: accepted requests are answered while new
  // submissions route to the surviving replicas.
  return victim->Shutdown();
}

Result<std::future<Result<PredictResponse>>> ReplicaRouter::Submit(
    std::span<const int32_t> indices, std::span<const double> values,
    Deadline deadline, std::string model_name,
    CompletionCallback on_complete) {
  std::lock_guard<std::mutex> lock(mu_);
  if (replicas_.empty()) {
    return Status::FailedPrecondition("router is not serving");
  }
  // Rank replicas by queue depth (snapshot), ties to the lowest index, and
  // admit at the first that accepts. Depths move as workers drain — the
  // ranking is a heuristic, the fallback is the guarantee.
  std::vector<size_t> order(replicas_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<size_t> depth(replicas_.size());
  for (size_t r = 0; r < replicas_.size(); ++r) {
    depth[r] = replicas_[r].server->queue_depth();
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return depth[a] < depth[b]; });

  Status last = Status::ResourceExhausted("no replica accepted the request");
  for (size_t r : order) {
    Replica& replica = replicas_[r];
    Result<std::future<Result<PredictResponse>>> admitted =
        replica.server->Submit(indices, values, deadline, model_name,
                               on_complete);
    if (admitted.ok()) {
      ++replica.routed;
      if (replica.routed_counter != nullptr) {
        replica.routed_counter->Increment();
        replica.depth_gauge->SetMax(
            static_cast<double>(replica.server->queue_depth()));
      }
      return admitted;
    }
    last = admitted.status();
    // Only a full queue justifies spilling to the next replica; malformed
    // rows or a shut-down server fail the same way everywhere.
    if (!last.IsResourceExhausted()) return last;
  }
  return last;
}

Result<PredictResponse> ReplicaRouter::Predict(std::span<const int32_t> indices,
                                               std::span<const double> values,
                                               Deadline deadline) {
  return AwaitResponse(Submit(indices, values, deadline), deadline);
}

void ReplicaRouter::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
  for (Replica& replica : replicas_) replica.server->Pause();
}

void ReplicaRouter::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  for (Replica& replica : replicas_) replica.server->Resume();
}

Status ReplicaRouter::Shutdown() {
  std::vector<Replica> replicas;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shut_down_ = true;
    replicas.swap(replicas_);
  }
  Status first = Status::OK();
  for (Replica& replica : replicas) {
    const Status s = replica.server->Shutdown();
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

int ReplicaRouter::num_replicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(replicas_.size());
}

size_t ReplicaRouter::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t depth = 0;
  for (const Replica& replica : replicas_) {
    depth += replica.server->queue_depth();
  }
  return depth;
}

size_t ReplicaRouter::queue_capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_.size() * options_.serve.queue_capacity;
}

InferenceServer* ReplicaRouter::replica(int r) {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_[static_cast<size_t>(r)].server.get();
}

int64_t ReplicaRouter::routed(int r) const {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_[static_cast<size_t>(r)].routed;
}

std::vector<obs::MetricsRegistry*> ReplicaRouter::replica_registries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<obs::MetricsRegistry*> registries;
  registries.reserve(registries_.size());
  for (const auto& registry : registries_) registries.push_back(registry.get());
  return registries;
}

}  // namespace gmpsvm
