#include "fleet/sv_store.h"

#include <cstring>
#include <utility>

#include "common/hash.h"

namespace gmpsvm::fleet {
namespace {

uint64_t HashParams(const KernelParams& params, uint64_t h) {
  return Fnv1a64(&params.gamma, sizeof(params.gamma), h);
}

uint64_t HashRow(std::span<const int32_t> indices,
                 std::span<const double> values, uint64_t h) {
  h = Fnv1a64(indices.data(), indices.size() * sizeof(int32_t), h);
  h = Fnv1a64(values.data(), values.size() * sizeof(double), h);
  return h;
}

bool RowsEqual(std::span<const int32_t> ia, std::span<const double> va,
               std::span<const int32_t> ib, std::span<const double> vb) {
  if (ia.size() != ib.size()) return false;
  return std::memcmp(ia.data(), ib.data(), ia.size() * sizeof(int32_t)) == 0 &&
         std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)) == 0;
}

bool ParamsEqual(const KernelParams& a, const KernelParams& b) {
  return a.gamma == b.gamma;
}

}  // namespace

// The per-(model, version) face of the store: translates the model's pool
// columns into global SV ids once at bind time, then forwards
// Gather/Commit. Owning a model snapshot pins every pool row the global
// entries reference.
class SvStore::Binding : public PredictionKernelCache {
 public:
  Binding(SvStore* store, std::shared_ptr<const MpSvmModel> model,
          std::vector<int64_t> global_ids)
      : store_(store),
        model_(std::move(model)),
        global_ids_(std::move(global_ids)) {}

  int64_t Gather(const SparseRowView& row, std::span<double> out,
                 std::span<uint8_t> hit) override {
    return store_->Gather(global_ids_, row, out, hit);
  }

  void Commit(const SparseRowView& row, std::span<const double> values,
              std::span<const uint8_t> hit) override {
    store_->Commit(global_ids_, row, values, hit);
  }

 private:
  SvStore* store_;
  std::shared_ptr<const MpSvmModel> model_;
  std::vector<int64_t> global_ids_;
};

SvStore::SvStore(const SvStoreOptions& options) : options_(options) {
  if (options_.metrics != nullptr) {
    hits_counter_ = options_.metrics->GetCounter(
        "gmpsvm_fleet_sv_hits_total",
        "Kernel values served from the shared SV store");
    misses_counter_ = options_.metrics->GetCounter(
        "gmpsvm_fleet_sv_misses_total",
        "Kernel values the predictor computed on SV-store misses");
    evicted_counter_ = options_.metrics->GetCounter(
        "gmpsvm_fleet_sv_evicted_total",
        "Cached kernel values retired by deterministic query eviction "
        "(FIFO)");
    unique_svs_gauge_ = options_.metrics->GetGauge(
        "gmpsvm_fleet_sv_unique",
        "Deduplicated support vectors across co-resident models");
    resident_gauge_ = options_.metrics->GetGauge(
        "gmpsvm_fleet_sv_values_resident",
        "Kernel values currently cached by the shared SV store");
  }
}

SvStore::~SvStore() = default;

PredictionKernelCache* SvStore::Bind(const ModelHandle& handle) {
  if (!handle.valid()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_pair(handle.name, handle.version);
  auto it = bindings_.find(key);
  if (it != bindings_.end()) return it->second.get();

  const MpSvmModel& model = *handle.model;
  const int64_t pool = model.pool_size();
  std::vector<int64_t> global_ids(static_cast<size_t>(pool));
  for (int64_t j = 0; j < pool; ++j) {
    global_ids[static_cast<size_t>(j)] = InternSvLocked(
        handle.model, static_cast<int32_t>(j), model.kernel);
  }
  pool_rows_ += pool;
  if (unique_svs_gauge_ != nullptr) {
    unique_svs_gauge_->Set(static_cast<double>(svs_.size()));
  }
  auto binding = std::make_unique<Binding>(this, handle.model,
                                           std::move(global_ids));
  PredictionKernelCache* raw = binding.get();
  bindings_.emplace(key, std::move(binding));
  return raw;
}

int64_t SvStore::InternSvLocked(
    const std::shared_ptr<const MpSvmModel>& owner, int32_t pool_row,
    const KernelParams& params) {
  const auto indices = owner->support_vectors.RowIndices(pool_row);
  const auto values = owner->support_vectors.RowValues(pool_row);
  const uint64_t hash = HashRow(indices, values, HashParams(params, kFnv1aOffset));
  const auto [begin, end] = sv_by_hash_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    const SvEntry& entry = svs_[static_cast<size_t>(it->second)];
    if (ParamsEqual(entry.params, params) &&
        RowsEqual(entry.owner->support_vectors.RowIndices(entry.pool_row),
                  entry.owner->support_vectors.RowValues(entry.pool_row),
                  indices, values)) {
      return it->second;
    }
  }
  const int64_t id = static_cast<int64_t>(svs_.size());
  svs_.push_back(SvEntry{owner, pool_row, params});
  sv_by_hash_.emplace(hash, id);
  return id;
}

int64_t SvStore::FindQueryLocked(const SparseRowView& row,
                                 uint64_t hash) const {
  const auto [begin, end] = query_by_hash_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    const auto qit = queries_.find(it->second);
    if (qit != queries_.end() &&
        RowsEqual(qit->second.indices, qit->second.values, row.indices,
                  row.values)) {
      return it->second;
    }
  }
  return -1;
}

int64_t SvStore::InternQueryLocked(const SparseRowView& row, uint64_t hash) {
  const int64_t id = next_query_id_++;
  QueryEntry entry;
  entry.indices.assign(row.indices.begin(), row.indices.end());
  entry.values.assign(row.values.begin(), row.values.end());
  queries_.emplace(id, std::move(entry));
  query_by_hash_.emplace(hash, id);
  query_fifo_.push_back(id);
  ++queries_interned_;
  return id;
}

void SvStore::EvictLocked() {
  while (options_.kernel_value_capacity >= 0 &&
         values_resident_ > options_.kernel_value_capacity &&
         !query_fifo_.empty()) {
    const int64_t victim = query_fifo_.front();
    query_fifo_.pop_front();
    auto it = queries_.find(victim);
    if (it == queries_.end()) continue;
    const int64_t freed = static_cast<int64_t>(it->second.kernel_values.size());
    const uint64_t hash = HashRow(it->second.indices, it->second.values,
                                  kFnv1aOffset);
    const auto [begin, end] = query_by_hash_.equal_range(hash);
    for (auto hit_it = begin; hit_it != end; ++hit_it) {
      if (hit_it->second == victim) {
        query_by_hash_.erase(hit_it);
        break;
      }
    }
    queries_.erase(it);
    values_resident_ -= freed;
    values_evicted_ += freed;
    if (evicted_counter_ != nullptr) {
      evicted_counter_->Add(static_cast<double>(freed));
    }
  }
  if (resident_gauge_ != nullptr) {
    resident_gauge_->Set(static_cast<double>(values_resident_));
  }
}

int64_t SvStore::Gather(const std::vector<int64_t>& global_ids,
                        const SparseRowView& row, std::span<double> out,
                        std::span<uint8_t> hit) {
  const size_t pool = global_ids.size();
  int64_t hits = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.kernel_value_capacity != 0) {
      const uint64_t hash = HashRow(row.indices, row.values, kFnv1aOffset);
      const int64_t qid = FindQueryLocked(row, hash);
      if (qid >= 0) {
        const QueryEntry& q = queries_.at(qid);
        for (size_t j = 0; j < pool; ++j) {
          const auto it = q.kernel_values.find(global_ids[j]);
          if (it != q.kernel_values.end()) {
            out[j] = it->second;
            hit[j] = 1;
            ++hits;
          }
        }
      }
    }
    hits_ += hits;
    misses_ += static_cast<int64_t>(pool) - hits;
  }
  if (hits_counter_ != nullptr && hits > 0) {
    hits_counter_->Add(static_cast<double>(hits));
  }
  if (misses_counter_ != nullptr && static_cast<int64_t>(pool) > hits) {
    misses_counter_->Add(static_cast<double>(static_cast<int64_t>(pool) - hits));
  }
  return hits;
}

void SvStore::Commit(const std::vector<int64_t>& global_ids,
                     const SparseRowView& row, std::span<const double> values,
                     std::span<const uint8_t> hit) {
  if (options_.kernel_value_capacity == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t hash = HashRow(row.indices, row.values, kFnv1aOffset);
  int64_t qid = FindQueryLocked(row, hash);
  if (qid < 0) qid = InternQueryLocked(row, hash);
  QueryEntry& q = queries_.at(qid);
  for (size_t j = 0; j < global_ids.size(); ++j) {
    if (hit[j] != 0) continue;  // came from the cache, already resident
    if (q.kernel_values.emplace(global_ids[j], values[j]).second) {
      ++values_resident_;
    }
  }
  EvictLocked();
}

SvStoreStats SvStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SvStoreStats stats;
  stats.models_bound = static_cast<int64_t>(bindings_.size());
  stats.pool_rows = pool_rows_;
  stats.unique_svs = static_cast<int64_t>(svs_.size());
  stats.hits = hits_;
  stats.misses = misses_;
  stats.values_resident = values_resident_;
  stats.values_evicted = values_evicted_;
  stats.queries_interned = queries_interned_;
  return stats;
}

}  // namespace gmpsvm::fleet
