#include "solver/kernel_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace gmpsvm {

KernelCache::KernelCache(int64_t row_length, size_t capacity_bytes,
                         int64_t max_rows)
    : row_length_(std::max<int64_t>(1, row_length)) {
  // An SMO step reads the rows of u and l together, so at least two rows fit
  // whatever the budget (LibSVM's Cache does the same): with one, fetching l
  // would evict u and hand back the same slot.
  capacity_rows_ = std::max<int64_t>(
      2, static_cast<int64_t>(capacity_bytes / (sizeof(double) * row_length_)));
  if (max_rows > 0) capacity_rows_ = std::min(capacity_rows_, max_rows);
  storage_.resize(static_cast<size_t>(capacity_rows_ * row_length_));
  free_slots_.reserve(static_cast<size_t>(capacity_rows_));
  for (int64_t s = capacity_rows_ - 1; s >= 0; --s) free_slots_.push_back(s);
}

const double* KernelCache::Lookup(int32_t row) {
  auto it = index_.find(row);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return storage_.data() + it->second->slot * row_length_;
}

double* KernelCache::Insert(int32_t row) {
  GMP_DCHECK(index_.find(row) == index_.end());
  int64_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    const Entry victim = lru_.back();
    lru_.pop_back();
    index_.erase(victim.row);
    slot = victim.slot;
  }
  lru_.push_front(Entry{row, slot});
  index_[row] = lru_.begin();
  return storage_.data() + slot * row_length_;
}

}  // namespace gmpsvm
