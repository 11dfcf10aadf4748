// FleetServer: multi-tenant admission over one ReplicaRouter.
//
//   client ──Submit(tenant, row)──▶ tenant table (spec, quota, counters)
//                                       │ unknown tenant: kFailedPrecondition
//                                   quota gate (per-tenant token bucket)
//                                       │ shed: kUnavailable + retry-after
//                                   overload gate (priority ladder over the
//                                       │ router's queue fraction)
//                                   ReplicaRouter::Submit (least-loaded
//                                       │ replica, spill on a full queue)
//                                   model-homogeneous micro-batches against
//                                       │ the tenant's model snapshot
//                                   shared SV store (cross-tenant kernel-
//                                           value reuse, Section 3.3.3)
//
// Three layers, one job each: an InferenceServer is one replica, the
// ReplicaRouter is the replica set, and the fleet owns admission, tenants,
// the SV store and the autoscaling policy. Every tenant's models live in the
// fleet's ModelRegistry under "tenant:<name>" and hot-swap through its
// validator/rollback gate. With share_support_vectors on, every batch binds
// to one SvStore, so a kernel value computed for one tenant's query is
// gathered — not recomputed — when a co-resident model references the same
// support vector; probabilities stay byte-identical to the sharing-off path
// at any cache capacity.
//
// Replica autoscaling is gauge-driven: ScaleTick() publishes the fleet's
// queue-depth gauges and feeds the mean depth per replica to the Autoscaler;
// a scale-up adds a replica through the router (replica i runs on
// devices[i % devices.size()] — a SimCluster's devices make a natural
// substrate), a scale-down drain-and-retires the newest one. Both respect
// min/max_replicas.
//
// Observability: per-tenant series (gmpsvm_fleet_*_total{tenant=...},
// gmpsvm_fleet_latency_seconds{tenant=...}), fleet gauges, the SV store's
// gmpsvm_fleet_sv_* and the router's gmpsvm_router_* publish into
// FleetOptions::metrics (or a private registry when null). Snapshot()
// aggregates kernel-evaluation counters across the router's live and
// retired replicas.

#ifndef GMPSVM_FLEET_FLEET_SERVER_H_
#define GMPSVM_FLEET_FLEET_SERVER_H_

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"
#include "fleet/autoscaler.h"
#include "fleet/quota.h"
#include "fleet/sv_store.h"
#include "serve/model_registry.h"
#include "serve/replica_router.h"

namespace gmpsvm::fleet {

struct TenantSpec {
  // Non-empty, without ':' or whitespace.
  std::string name;

  // Load-shedding priority: under fleet overload, lower priorities are shed
  // first (0 sheds earliest). Negative values are invalid.
  int priority = 0;

  // Admission quota; rate <= 0 means unlimited.
  QuotaSpec quota;

  // Expected traffic share, informational (workload generators and config
  // files use it to weight tenants). Negative values are invalid.
  double weight = 1.0;

  // Per-tenant PredictOptions override: every batch of this tenant's
  // requests runs with these options instead of the fleet-wide defaults
  // (decision rule, cascade mode/knobs, coupling — the whole struct).
  // Validated at registration, so a tenant can never be created with options
  // its batches would reject at predict time.
  std::optional<PredictOptions> predict;
};

// The fleet registry key tenant `name`'s models live under ("tenant:<name>"),
// apart from any name registered directly.
std::string TenantModelKey(std::string_view name);

// Rejects a negative or NaN shed_start_fraction; values >= 1 mean no
// overload shedding.
Status ValidateShedStart(double shed_start_fraction);

struct FleetOptions {
  // Template applied to every replica. Its model_name, metrics and
  // predict_options_resolver are managed by the fleet; its lane_base is the
  // base of the first replica's trace band; its fault injector reaches every
  // replica's devices and the tenant swap gate.
  ServeOptions serve;

  // Replica device models, cycled as replicas are added (replica i runs on
  // devices[i % devices.size()]); a SimCluster's device models slot in
  // directly. Empty = every replica on serve.executor_model.
  std::vector<ExecutorModel> devices;

  int initial_replicas = 1;
  AutoscalePolicy autoscale;

  // Cross-tenant SV sharing (the tentpole): off = every batch recomputes its
  // kernel block (the reference path results are compared against).
  bool share_support_vectors = true;
  int64_t sv_cache_capacity = 1 << 20;

  // Fleet-wide queue fraction where priority shedding begins. At fraction f
  // in (shed_start_fraction, 1], a tenant with priority p (ladder top P) is
  // admitted only while f <= shed_start + (1 - shed_start) * (p+1)/(P+1) —
  // lowest priority sheds first, the top rung only at a completely full
  // fleet. >= 1 disables overload shedding (quota shedding still applies);
  // negative or NaN is rejected by Start().
  double shed_start_fraction = 0.75;

  // Shared registry for the fleet, per-tenant, SV-store and router series;
  // nullptr keeps a private one (reachable via metrics()).
  obs::MetricsRegistry* metrics = nullptr;
};

struct TenantStatsSnapshot {
  std::string tenant;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed_quota = 0;     // token bucket drained
  uint64_t shed_overload = 0;  // priority ladder under fleet overload
  uint64_t rejected = 0;       // every replica queue full / invalid rows
  uint64_t completed = 0;
  uint64_t failed = 0;         // terminal per-request failures
  double latency_mean = 0.0;   // admission -> response, seconds
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;
};

struct FleetStatsSnapshot {
  std::vector<TenantStatsSnapshot> tenants;  // sorted by name
  int replicas = 0;
  uint64_t scale_ups = 0;
  uint64_t scale_downs = 0;

  // Kernel-evaluation counters summed over every replica worker (live and
  // retired) — the quantity cross-tenant sharing reduces.
  int64_t kernel_values_computed = 0;
  int64_t kernel_values_reused = 0;

  SvStoreStats sv;

  // Renders the per-tenant table plus fleet totals.
  std::string ToTable() const;
};

class FleetServer {
 public:
  explicit FleetServer(FleetOptions options);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  // Validates the policy and spins up the initial replicas (clamped to
  // [min_replicas, max_replicas]).
  Status Start();

  // Tenant lifecycle; AddTenant before or after Start(). AddTenant fails
  // with kInvalidArgument on a malformed spec or a model the validator
  // rejects, and with kFailedPrecondition when the tenant exists; a failed
  // AddTenant creates no tenant. Swaps go through the registry's
  // validator/rollback gate: on rejection the previous version keeps
  // serving.
  Result<int64_t> AddTenant(const TenantSpec& spec, MpSvmModel model);
  Result<int64_t> SwapTenantModel(const std::string& tenant, MpSvmModel model);

  // Admission for one sparse row on behalf of `tenant`. Sheds with
  // kUnavailable (message carries a retry-after hint) on a drained quota
  // bucket or fleet overload below the tenant's priority rung; rejects with
  // kResourceExhausted only when every replica queue is full. An admitted
  // request always resolves its future.
  Result<std::future<Result<PredictResponse>>> Submit(
      const std::string& tenant, std::span<const int32_t> indices,
      std::span<const double> values, Deadline deadline = Deadline::Infinite());

  // Submit + wait, flattening admission and per-request errors.
  Result<PredictResponse> Predict(const std::string& tenant,
                                  std::span<const int32_t> indices,
                                  std::span<const double> values,
                                  Deadline deadline = Deadline::Infinite());

  // One autoscaling observation: publishes the fleet queue gauges, feeds
  // the mean depth per replica to the policy, and applies the decision
  // (scale-up replica add or drain-and-retire). Call on a fixed cadence.
  ScaleDecision ScaleTick();

  // Pauses/resumes every replica's consumption (admission unaffected) —
  // deterministic backlog for overload and autoscale tests.
  void PauseAll();
  void ResumeAll();

  // Drains every replica and joins their workers. Idempotent.
  Status Shutdown();

  int num_replicas() const;
  size_t total_queue_depth() const;
  // Every tenant's models (validator and fault gate included).
  ModelRegistry& models() { return models_; }
  SvStore& sv_store() { return sv_store_; }
  obs::MetricsRegistry* metrics() const { return metrics_; }
  const FleetOptions& options() const { return options_; }

  FleetStatsSnapshot Snapshot() const;

 private:
  struct TenantState {
    TenantSpec spec;
    std::unique_ptr<TokenBucket> bucket;
    obs::Counter* submitted;
    obs::Counter* admitted;
    obs::Counter* shed_quota;
    obs::Counter* shed_overload;
    obs::Counter* rejected;
    obs::Counter* completed;
    obs::Counter* failed;
    obs::Histogram* latency;
  };

  RouterOptions MakeRouterOptions();
  ExecutorModel DeviceFor(int replica) const;
  // The options a batch of `handle`'s tenant runs with (the router's
  // per-batch hook).
  PredictOptions BatchOptions(const ModelHandle& handle);
  const TenantState* FindTenant(std::string_view name) const;

  FleetOptions options_;

  // Declared before sv_store_: the store publishes into the resolved
  // registry.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;

  ModelRegistry models_;
  SvStore sv_store_;
  Stopwatch clock_;  // the token buckets' timeline

  obs::Gauge* replicas_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* mean_depth_gauge_;
  obs::Counter* scale_ups_;
  obs::Counter* scale_downs_;

  // Tenant states are never removed, so pointers into the table stay valid
  // for the fleet's lifetime (completion callbacks hold them).
  mutable std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantState>, std::less<>> tenants_;
  int max_priority_ = 0;

  std::mutex scale_mu_;  // serializes ScaleTick
  Autoscaler autoscaler_;

  // Declared last: its workers call back into the tenant table and the
  // store, so it shuts down before they are destroyed.
  ReplicaRouter router_;
};

}  // namespace gmpsvm::fleet

#endif  // GMPSVM_FLEET_FLEET_SERVER_H_
