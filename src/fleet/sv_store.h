// SvStore: the fleet's shared prediction-time support-vector store.
//
// Co-resident tenant models trained on overlapping data carry overlapping
// support vectors. Binding a model registers every row of its SV pool into
// one global identity space — content-hashed dedup over (kernel params, row
// indices, row values) — and the store caches kernel values K(query, sv)
// keyed by (interned query row, global SV id). A value computed while
// serving one tenant is then gathered, not recomputed, when any co-resident
// model references the same support vector against the same query content:
// Section 3.3.3's kernel-value sharing applied across tenants. Bindings
// implement core's PredictionKernelCache and plug into the predictor's
// shared-kernel path through PredictOptions::kernel_cache (the fleet sets it
// per batch via ServeOptions::predict_options_resolver).
//
// Correctness contract: a kernel value is a pure function of (query row,
// SV row, kernel params) and cache misses run through the predictor's own
// batched ComputeBlock path, so probabilities are byte-identical with the
// store attached or not, at ANY capacity. Hashes only accelerate lookup —
// every match is confirmed by exact content comparison, so collisions cost
// time, never correctness. Eviction retires whole queries in interning
// order (FIFO), deterministic for a deterministic request sequence, making
// hit/miss counters reproducible too.

#ifndef GMPSVM_FLEET_SV_STORE_H_
#define GMPSVM_FLEET_SV_STORE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/predictor.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"

namespace gmpsvm::fleet {

struct SvStoreOptions {
  // Upper bound on cached kernel values across all queries. 0 disables
  // value caching entirely (dedup bookkeeping still runs, every Gather
  // misses); < 0 means unbounded.
  int64_t kernel_value_capacity = 1 << 20;

  // Optional registry for gmpsvm_fleet_sv_* series; nullptr disables.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SvStoreStats {
  int64_t models_bound = 0;      // distinct (name, version) pools registered
  int64_t pool_rows = 0;         // total pool rows across bound models
  int64_t unique_svs = 0;        // global entries after dedup
  int64_t hits = 0;              // kernel values served from the store
  int64_t misses = 0;            // values the predictor had to compute
  int64_t values_resident = 0;   // currently cached
  int64_t values_evicted = 0;
  int64_t queries_interned = 0;
};

class SvStore {
 public:
  explicit SvStore(const SvStoreOptions& options = {});
  ~SvStore();

  SvStore(const SvStore&) = delete;
  SvStore& operator=(const SvStore&) = delete;

  // Returns the PredictionKernelCache binding for `handle`, registering the
  // model's SV pool into the global store on first sight of that
  // (name, version). The binding keeps the model snapshot alive and stays
  // valid for the store's lifetime; repeated calls for the same snapshot
  // return the same pointer. Thread-safe.
  PredictionKernelCache* Bind(const ModelHandle& handle);

  SvStoreStats stats() const;

  const SvStoreOptions& options() const { return options_; }

 private:
  class Binding;

  // A deduplicated support vector: the pool row of some bound model,
  // pinned alive by the owning snapshot.
  struct SvEntry {
    std::shared_ptr<const MpSvmModel> owner;
    int32_t pool_row = 0;
    KernelParams params;
  };

  // An interned query row (owned copy) with its cached kernel values.
  struct QueryEntry {
    std::vector<int32_t> indices;
    std::vector<double> values;
    std::unordered_map<int64_t, double> kernel_values;  // global SV id -> K
  };

  int64_t InternSvLocked(const std::shared_ptr<const MpSvmModel>& owner,
                         int32_t pool_row, const KernelParams& params);
  int64_t FindQueryLocked(const SparseRowView& row, uint64_t hash) const;
  int64_t InternQueryLocked(const SparseRowView& row, uint64_t hash);
  void EvictLocked();

  // PredictionKernelCache plumbing, called by Binding.
  int64_t Gather(const std::vector<int64_t>& global_ids,
                 const SparseRowView& row, std::span<double> out,
                 std::span<uint8_t> hit);
  void Commit(const std::vector<int64_t>& global_ids, const SparseRowView& row,
              std::span<const double> values, std::span<const uint8_t> hit);

  SvStoreOptions options_;

  mutable std::mutex mu_;
  std::vector<SvEntry> svs_;                              // global id -> entry
  std::unordered_multimap<uint64_t, int64_t> sv_by_hash_;

  std::map<int64_t, QueryEntry> queries_;                 // query id -> entry
  std::unordered_multimap<uint64_t, int64_t> query_by_hash_;
  std::deque<int64_t> query_fifo_;  // interning order, for eviction
  int64_t next_query_id_ = 0;

  // Bindings keyed by (model name, version); pointers must stay stable.
  std::map<std::pair<std::string, int64_t>, std::unique_ptr<Binding>>
      bindings_;

  int64_t pool_rows_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t values_resident_ = 0;
  int64_t values_evicted_ = 0;
  int64_t queries_interned_ = 0;

  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evicted_counter_ = nullptr;
  obs::Gauge* unique_svs_gauge_ = nullptr;
  obs::Gauge* resident_gauge_ = nullptr;
};

}  // namespace gmpsvm::fleet

#endif  // GMPSVM_FLEET_SV_STORE_H_
