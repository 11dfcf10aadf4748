// MP-SVM-level kernel-value sharing (Section 3.3.2, Figure 3).
//
// The kernel matrix of pairwise problem (s, t) decomposes into class blocks:
// a row for instance j restricted to class c is the segment
// K(x_j, X_c) — and that segment is identical for every binary SVM whose
// problem contains both x_j and class c. SharedBlockCache stores segments
// keyed by (global row, class) under a device-memory budget with FIFO
// eviction, so concurrently trained SVMs (and successive rounds of one SVM)
// share kernel values instead of recomputing them. SharedRowSource adapts
// the cache to the BatchSmoSolver's KernelRowSource interface by
// concatenating the (j, s) and (j, t) segments.

#ifndef GMPSVM_CORE_SHARED_BLOCKS_H_
#define GMPSVM_CORE_SHARED_BLOCKS_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "device/executor.h"
#include "kernel/kernel_computer.h"
#include "solver/kernel_row_source.h"

namespace gmpsvm {

// Cache of kernel segments K(x_j, X_c). One instance per training run,
// shared by all pairs.
class SharedBlockCache {
 public:
  // `dataset` and `computer` must outlive the cache. `budget_bytes` bounds
  // segment storage; the reservation is charged to `executor`'s device
  // memory lazily as segments are stored.
  SharedBlockCache(const Dataset* dataset, const KernelComputer* computer,
                   size_t budget_bytes, SimExecutor* executor);

  // Returns the cached segment K(x_global_row, X_cls) or an empty span.
  std::span<const double> Lookup(int32_t global_row, int cls);

  // Pins the (g, cls_a) and (g, cls_b) keys for every g in `global_rows` so
  // eviction skips them until the next PinPairs call. A row source pins the
  // whole round's segments before Ensure-ing either class: the second
  // class's insertions must not evict the first class's (possibly old,
  // FIFO-front) hits.
  void PinPairs(std::span<const int32_t> global_rows, int cls_a, int cls_b);

  // Ensures the segments (g, cls) exist for every g in `global_rows`,
  // computing all misses as one batched product. Segments already present
  // count as shared values.
  Status Ensure(std::span<const int32_t> global_rows, int cls,
                SimExecutor* executor, StreamId stream);

  int64_t segments_cached() const {
    return static_cast<int64_t>(segments_.size() - free_slots_.size());
  }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  size_t bytes_used() const { return bytes_used_; }

  // Serializes one PinPairs/Ensure/Lookup round. A row source's round spans
  // several calls whose pin/evict state must not interleave with another
  // SVM's round, so callers lock here rather than per call. Note the
  // trainers keep cache-backed runs on the serial pair path anyway (hit/miss
  // accounting is schedule-dependent); this mutex makes stray concurrent use
  // safe, not deterministic.
  std::mutex& round_mutex() { return round_mu_; }

 private:
  // Per-key state is indexed by row * num_classes + cls.
  size_t FlatKey(int32_t global_row, int cls) const;

  void EvictUntilFits(size_t incoming_bytes);

  const Dataset* dataset_;
  const KernelComputer* computer_;
  size_t budget_bytes_;
  SimExecutor* executor_;
  DeviceAllocation reservation_;
  std::vector<int32_t> slot_;  // key -> index into segments_, -1 if absent
  std::vector<std::vector<double>> segments_;  // by slot; empty while free
  std::vector<int32_t> free_slots_;
  // A key is pinned while its stamp equals the current PinPairs generation
  // (64 bits: never wraps).
  std::vector<uint64_t> pin_stamp_;
  uint64_t pin_generation_ = 1;
  std::deque<size_t> fifo_;  // keys in insertion order, front = next victim
  std::vector<double> scratch_;  // one Ensure's batched product
  std::mutex round_mu_;
  size_t bytes_used_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

// KernelRowSource for pairwise problem (s, t) backed by a SharedBlockCache.
// Requires the problem's rows to be [ClassRows(s)..., ClassRows(t)...] in
// dataset canonical order (Dataset::MakePairProblem guarantees this).
class SharedRowSource : public KernelRowSource {
 public:
  // `computer` backs the direct-computation fallback used when the cache
  // budget cannot hold even one batch of segments.
  SharedRowSource(const BinaryProblem* problem, int class_s, int class_t,
                  SharedBlockCache* cache, const KernelComputer* computer)
      : problem_(problem),
        class_s_(class_s),
        class_t_(class_t),
        cache_(cache),
        fallback_(problem, computer) {
    for (int8_t label : problem_->y) {
      if (label > 0) ++class_s_count_;
    }
  }

  void ComputeRows(std::span<const int32_t> local_rows,
                   std::span<double* const> dest, SimExecutor* executor,
                   StreamId stream) override;

 private:
  const BinaryProblem* problem_;
  int class_s_;
  int class_t_;
  SharedBlockCache* cache_;
  DirectRowSource fallback_;
  size_t class_s_count_ = 0;
  std::vector<int32_t> globals_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_CORE_SHARED_BLOCKS_H_
