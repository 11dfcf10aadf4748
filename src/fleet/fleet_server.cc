#include "fleet/fleet_server.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "metrics/report.h"

namespace gmpsvm::fleet {
namespace {

constexpr std::string_view kTenantKeyPrefix = "tenant:";

Status ValidateSpec(const TenantSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("tenant name must be non-empty");
  }
  for (char c : spec.name) {
    if (c == ':' || std::isspace(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument(
          "tenant name must not contain ':' or whitespace: " + spec.name);
    }
  }
  if (spec.priority < 0) {
    return Status::InvalidArgument("tenant priority must be >= 0: " +
                                   spec.name);
  }
  if (spec.weight < 0.0) {
    return Status::InvalidArgument("tenant weight must be >= 0: " + spec.name);
  }
  if (spec.predict.has_value()) {
    const Status status = spec.predict->Validate();
    if (!status.ok()) {
      return Status::InvalidArgument("tenant " + spec.name +
                                     " predict options: " + status.message());
    }
  }
  return Status::OK();
}

}  // namespace

std::string TenantModelKey(std::string_view name) {
  return std::string(kTenantKeyPrefix) + std::string(name);
}

Status ValidateShedStart(double shed_start_fraction) {
  if (std::isnan(shed_start_fraction) || shed_start_fraction < 0.0) {
    return Status::InvalidArgument(StrPrintf(
        "shed_start must be >= 0 (>= 1 disables overload shedding), got %g",
        shed_start_fraction));
  }
  return Status::OK();
}

FleetServer::FleetServer(FleetOptions options)
    : options_(std::move(options)),
      owned_metrics_(options_.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_metrics_.get()),
      sv_store_({.kernel_value_capacity = options_.share_support_vectors
                                              ? options_.sv_cache_capacity
                                              : 0,
                 .metrics = metrics_}),
      autoscaler_(options_.autoscale),
      router_(&models_, MakeRouterOptions()) {
  options_.initial_replicas = std::max(1, options_.initial_replicas);
  // Tenant hot-swaps ride the same fault gate as single-model serving.
  models_.SetFaultInjector(options_.serve.fault);

  replicas_gauge_ = metrics_->GetGauge(
      "gmpsvm_fleet_replicas", "Live serving replicas in the fleet");
  queue_depth_gauge_ = metrics_->GetGauge(
      "gmpsvm_fleet_queue_depth", "Queued requests across all replicas");
  mean_depth_gauge_ = metrics_->GetGauge(
      "gmpsvm_fleet_mean_queue_depth",
      "Queued requests per replica (the autoscaler's input)");
  scale_ups_ = metrics_->GetCounter("gmpsvm_fleet_scale_ups_total",
                                    "Replicas added by the autoscaler");
  scale_downs_ = metrics_->GetCounter(
      "gmpsvm_fleet_scale_downs_total",
      "Replicas drained and retired by the autoscaler");
}

FleetServer::~FleetServer() { (void)Shutdown(); }

RouterOptions FleetServer::MakeRouterOptions() {
  RouterOptions router;
  router.serve = options_.serve;
  router.serve.predict_options_resolver = [this](const ModelHandle& handle) {
    return BatchOptions(handle);
  };
  router.devices = {DeviceFor(0)};
  router.metrics = metrics_;
  return router;
}

ExecutorModel FleetServer::DeviceFor(int replica) const {
  if (options_.devices.empty()) return options_.serve.executor_model;
  return options_.devices[static_cast<size_t>(replica) %
                          options_.devices.size()];
}

PredictOptions FleetServer::BatchOptions(const ModelHandle& handle) {
  // Batches resolve their tenant from the namespaced model key; tenants
  // without an override keep the fleet-wide serve.predict.
  const std::string_view key = handle.name;
  const TenantState* tenant =
      key.starts_with(kTenantKeyPrefix)
          ? FindTenant(key.substr(kTenantKeyPrefix.size()))
          : nullptr;
  PredictOptions predict = tenant != nullptr && tenant->spec.predict.has_value()
                               ? *tenant->spec.predict
                               : options_.serve.predict;
  if (options_.share_support_vectors) {
    predict.kernel_cache = sv_store_.Bind(handle);
  }
  return predict;
}

Status FleetServer::Start() {
  GMP_RETURN_NOT_OK(options_.autoscale.Validate());
  GMP_RETURN_NOT_OK(ValidateShedStart(options_.shed_start_fraction));
  GMP_RETURN_NOT_OK(router_.Start());
  const int initial =
      std::clamp(options_.initial_replicas, options_.autoscale.min_replicas,
                 options_.autoscale.max_replicas);
  for (int r = 1; r < initial; ++r) {
    GMP_RETURN_NOT_OK(router_.AddReplica(DeviceFor(r)));
  }
  replicas_gauge_->Set(static_cast<double>(router_.num_replicas()));
  return Status::OK();
}

Result<int64_t> FleetServer::AddTenant(const TenantSpec& spec,
                                       MpSvmModel model) {
  GMP_RETURN_NOT_OK(ValidateSpec(spec));
  std::lock_guard<std::mutex> lock(tenants_mu_);
  if (tenants_.count(spec.name) != 0) {
    return Status::FailedPrecondition("tenant already exists: " + spec.name);
  }
  GMP_ASSIGN_OR_RETURN(int64_t version,
                       models_.Register(TenantModelKey(spec.name),
                                        std::move(model)));
  auto state = std::make_unique<TenantState>();
  state->spec = spec;
  state->bucket = std::make_unique<TokenBucket>(spec.quota);
  const obs::Labels labels{{"tenant", spec.name}};
  state->submitted = metrics_->GetCounter(
      "gmpsvm_fleet_submitted_total", "Fleet admission attempts", labels);
  state->admitted = metrics_->GetCounter(
      "gmpsvm_fleet_admitted_total", "Requests admitted to a replica queue",
      labels);
  state->shed_quota = metrics_->GetCounter(
      "gmpsvm_fleet_shed_quota_total",
      "Requests shed by the tenant's token bucket", labels);
  state->shed_overload = metrics_->GetCounter(
      "gmpsvm_fleet_shed_overload_total",
      "Requests shed by the overload priority ladder", labels);
  state->rejected = metrics_->GetCounter(
      "gmpsvm_fleet_rejected_total",
      "Requests rejected (queues full or malformed)", labels);
  state->completed = metrics_->GetCounter(
      "gmpsvm_fleet_completed_total", "Requests answered successfully",
      labels);
  state->failed = metrics_->GetCounter(
      "gmpsvm_fleet_failed_total", "Requests with terminal failures", labels);
  state->latency = metrics_->GetHistogram(
      "gmpsvm_fleet_latency_seconds", "Admission-to-response latency",
      obs::Histogram::LatencyBuckets(), labels);
  max_priority_ = std::max(max_priority_, spec.priority);
  tenants_.emplace(spec.name, std::move(state));
  return version;
}

Result<int64_t> FleetServer::SwapTenantModel(const std::string& tenant,
                                             MpSvmModel model) {
  if (FindTenant(tenant) == nullptr) {
    return Status::FailedPrecondition("no such tenant: " + tenant);
  }
  // The registry's own lock serializes the swap itself.
  return models_.Register(TenantModelKey(tenant), std::move(model));
}

const FleetServer::TenantState* FleetServer::FindTenant(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

Result<std::future<Result<PredictResponse>>> FleetServer::Submit(
    const std::string& tenant, std::span<const int32_t> indices,
    std::span<const double> values, Deadline deadline) {
  const TenantState* state = FindTenant(tenant);
  if (state == nullptr) {
    return Status::FailedPrecondition("no such tenant: " + tenant);
  }
  state->submitted->Increment();

  // Gate 1: the tenant's own admission quota.
  const double now = clock_.ElapsedSeconds();
  if (!state->bucket->TryAcquire(now)) {
    state->shed_quota->Increment();
    return Status::Unavailable(StrPrintf(
        "tenant %s over admission quota; retry after %.3f s", tenant.c_str(),
        state->bucket->RetryAfterSeconds(now)));
  }

  // Gate 2: the overload priority ladder — lowest priority sheds first.
  const size_t capacity = router_.queue_capacity();
  const double fraction =
      capacity > 0 ? static_cast<double>(router_.queue_depth()) /
                         static_cast<double>(capacity)
                   : 0.0;
  const double shed_start = options_.shed_start_fraction;
  if (shed_start < 1.0 && fraction > shed_start) {
    int ladder_top;
    {
      std::lock_guard<std::mutex> tenants_lock(tenants_mu_);
      ladder_top = max_priority_;
    }
    const double rung =
        shed_start + (1.0 - shed_start) *
                         (static_cast<double>(state->spec.priority) + 1.0) /
                         (static_cast<double>(ladder_top) + 1.0);
    if (fraction > rung) {
      state->shed_overload->Increment();
      return Status::Unavailable(StrPrintf(
          "fleet overloaded (queues %.0f%% full); tenant %s (priority %d) "
          "shed; retry after %.3f s",
          fraction * 100.0, tenant.c_str(), state->spec.priority,
          0.01 * fraction));
    }
  }

  CompletionCallback on_complete =
      [state](const Result<PredictResponse>& response) {
        if (response.ok()) {
          state->completed->Increment();
          state->latency->Observe(response->total_seconds);
        } else {
          state->failed->Increment();
        }
      };
  auto submitted = router_.Submit(indices, values, deadline,
                                  TenantModelKey(tenant),
                                  std::move(on_complete));
  if (!submitted.ok()) {
    state->rejected->Increment();
    return submitted.status();
  }
  state->admitted->Increment();
  return submitted;
}

Result<PredictResponse> FleetServer::Predict(const std::string& tenant,
                                             std::span<const int32_t> indices,
                                             std::span<const double> values,
                                             Deadline deadline) {
  return AwaitResponse(Submit(tenant, indices, values, deadline), deadline);
}

ScaleDecision FleetServer::ScaleTick() {
  std::lock_guard<std::mutex> lock(scale_mu_);
  const int count = router_.num_replicas();
  if (count == 0) return ScaleDecision::kHold;  // not serving
  const size_t depth = router_.queue_depth();
  replicas_gauge_->Set(static_cast<double>(count));
  queue_depth_gauge_->Set(static_cast<double>(depth));
  mean_depth_gauge_->Set(static_cast<double>(depth) / count);

  // The policy consumes the published gauge, keeping "gauge-driven" literal:
  // what a dashboard shows is exactly what the autoscaler saw.
  const ScaleDecision decision =
      autoscaler_.Tick(mean_depth_gauge_->Value(), count);
  if (decision == ScaleDecision::kScaleUp) {
    if (router_.AddReplica(DeviceFor(count)).ok()) scale_ups_->Increment();
  } else if (decision == ScaleDecision::kScaleDown) {
    if (router_.RetireNewest().ok()) scale_downs_->Increment();
  }
  replicas_gauge_->Set(static_cast<double>(router_.num_replicas()));
  return decision;
}

void FleetServer::PauseAll() { router_.Pause(); }

void FleetServer::ResumeAll() { router_.Resume(); }

Status FleetServer::Shutdown() {
  const Status status = router_.Shutdown();
  replicas_gauge_->Set(0.0);
  return status;
}

int FleetServer::num_replicas() const { return router_.num_replicas(); }

size_t FleetServer::total_queue_depth() const { return router_.queue_depth(); }

FleetStatsSnapshot FleetServer::Snapshot() const {
  FleetStatsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    for (const auto& [name, state] : tenants_) {
      TenantStatsSnapshot tenant;
      tenant.tenant = name;
      tenant.submitted = static_cast<uint64_t>(state->submitted->Value());
      tenant.admitted = static_cast<uint64_t>(state->admitted->Value());
      tenant.shed_quota = static_cast<uint64_t>(state->shed_quota->Value());
      tenant.shed_overload =
          static_cast<uint64_t>(state->shed_overload->Value());
      tenant.rejected = static_cast<uint64_t>(state->rejected->Value());
      tenant.completed = static_cast<uint64_t>(state->completed->Value());
      tenant.failed = static_cast<uint64_t>(state->failed->Value());
      const obs::HistogramSnapshot latencies = state->latency->Snapshot();
      tenant.latency_mean = latencies.Mean();
      tenant.latency_p50 = latencies.Percentile(50.0);
      tenant.latency_p95 = latencies.Percentile(95.0);
      tenant.latency_p99 = latencies.Percentile(99.0);
      tenant.latency_max = latencies.Max();
      snap.tenants.push_back(std::move(tenant));
    }
  }
  snap.replicas = router_.num_replicas();
  const int workers = std::max(1, options_.serve.num_workers);
  for (obs::MetricsRegistry* registry : router_.replica_registries()) {
    for (int w = 0; w < workers; ++w) {
      const obs::Labels labels{{"worker", std::to_string(w)}};
      snap.kernel_values_computed += static_cast<int64_t>(
          registry
              ->GetCounter("gmpsvm_kernel_values_computed_total",
                           "Kernel-function evaluations actually computed.",
                           labels)
              ->Value());
      snap.kernel_values_reused += static_cast<int64_t>(
          registry
              ->GetCounter("gmpsvm_kernel_values_reused_total",
                           "Kernel values served from a buffer instead of "
                           "recomputed.",
                           labels)
              ->Value());
    }
  }
  snap.scale_ups = static_cast<uint64_t>(scale_ups_->Value());
  snap.scale_downs = static_cast<uint64_t>(scale_downs_->Value());
  snap.sv = sv_store_.stats();
  return snap;
}

std::string FleetStatsSnapshot::ToTable() const {
  TablePrinter table({"tenant", "submitted", "admitted", "shed", "rejected",
                      "completed", "failed", "p50 ms", "p95 ms", "p99 ms"});
  for (const TenantStatsSnapshot& tenant : tenants) {
    table.AddRow({tenant.tenant, std::to_string(tenant.submitted),
                  std::to_string(tenant.admitted),
                  std::to_string(tenant.shed_quota + tenant.shed_overload),
                  std::to_string(tenant.rejected),
                  std::to_string(tenant.completed),
                  std::to_string(tenant.failed),
                  StrPrintf("%.3f", tenant.latency_p50 * 1e3),
                  StrPrintf("%.3f", tenant.latency_p95 * 1e3),
                  StrPrintf("%.3f", tenant.latency_p99 * 1e3)});
  }
  std::string out = table.ToString();
  out += StrPrintf(
      "replicas %d (scale-ups %llu, scale-downs %llu)\n"
      "kernel values: computed %lld, reused %lld\n"
      "sv store: pool %lld, unique %lld, hits %lld, misses %lld, evicted "
      "%lld\n",
      replicas, static_cast<unsigned long long>(scale_ups),
      static_cast<unsigned long long>(scale_downs),
      static_cast<long long>(kernel_values_computed),
      static_cast<long long>(kernel_values_reused),
      static_cast<long long>(sv.pool_rows), static_cast<long long>(sv.unique_svs),
      static_cast<long long>(sv.hits), static_cast<long long>(sv.misses),
      static_cast<long long>(sv.values_evicted));
  return out;
}

}  // namespace gmpsvm::fleet
