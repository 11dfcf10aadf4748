// LRU kernel-row cache, as used by LibSVM (host RAM) and by the GPU baseline
// (a fixed slice of device memory). Stores full rows of the kernel matrix of
// one binary problem, keyed by local row index.

#ifndef GMPSVM_SOLVER_KERNEL_CACHE_H_
#define GMPSVM_SOLVER_KERNEL_CACHE_H_

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

namespace gmpsvm {

class KernelCache {
 public:
  // `row_length` values per row; capacity derived from `capacity_bytes`
  // (at least two rows are always cacheable). `max_rows`, when positive, caps
  // the capacity — a kernel matrix only has n distinct rows, so callers pass
  // the problem size to avoid reserving storage that can never fill.
  KernelCache(int64_t row_length, size_t capacity_bytes, int64_t max_rows = 0);

  int64_t row_length() const { return row_length_; }
  int64_t capacity_rows() const { return capacity_rows_; }

  // Returns the cached row or nullptr. A hit refreshes recency.
  const double* Lookup(int32_t row);

  // Returns writable storage for `row`, evicting the least-recently-used row
  // if needed. The caller fills it with kernel values.
  double* Insert(int32_t row);

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t rows_cached() const { return static_cast<int64_t>(index_.size()); }

 private:
  struct Entry {
    int32_t row;
    int64_t slot;
  };

  int64_t row_length_;
  int64_t capacity_rows_;
  std::vector<double> storage_;            // capacity_rows_ * row_length_
  std::list<Entry> lru_;                   // front = most recent
  std::unordered_map<int32_t, std::list<Entry>::iterator> index_;
  std::vector<int64_t> free_slots_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SOLVER_KERNEL_CACHE_H_
