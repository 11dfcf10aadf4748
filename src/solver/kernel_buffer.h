// The solver layer's one kernel-row store: a pre-allocated region holding
// full kernel-matrix rows of one binary problem, keyed by local row index,
// under one of the paper's two replacement policies.
//
//   * kFifo is the GPU buffer of Section 3.3.1 that the batched SMO solver
//     keeps its working-set rows in (the paper's choice: "we find first-in
//     first-out simple and sufficiently effective").
//   * kLru is LibSVM's kernel cache (Section 3.2), which the classic SMO
//     solver keeps its rows in on the CPU (LibSVM) and in device memory (the
//     GPU baseline and GPUSVM); the batched solver's buffer-policy ablation
//     selects it too.
//
// Refinement over the paper's per-batch description: eviction is per-row in
// queue order, and rows belonging to the current working set can be pinned
// so a large insertion cannot evict rows the ongoing round still needs. With
// q = capacity this degenerates to whole-buffer replacement, exactly the
// paper's batch behaviour.

#ifndef GMPSVM_SOLVER_KERNEL_BUFFER_H_
#define GMPSVM_SOLVER_KERNEL_BUFFER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace gmpsvm {

namespace fault {
class FaultInjector;
}  // namespace fault

class KernelBuffer {
 public:
  // Eviction order: kFifo evicts the oldest insertion, kLru the least
  // recently used row (a hit moves the row to the newest end).
  enum class Policy { kFifo, kLru };

  // `row_length` kernel values per row (the binary problem's n);
  // `capacity_rows` buffered rows (the paper's bs). A row is one of the
  // problem's instances, so its id lies in [0, row_length); per-row state is
  // indexed by it, and an id outside that range fails a GMP_DCHECK.
  KernelBuffer(int64_t row_length, int64_t capacity_rows,
               Policy policy = Policy::kFifo);

  // Rows a cache of `bytes` holds under LibSVM's rule: bytes / (8 *
  // row_length), at least two and at most row_length. An SMO step reads the
  // rows of u and l together, so with one row fetching l would evict u; a
  // kernel matrix has only row_length distinct rows.
  static int64_t CacheRows(int64_t row_length, size_t bytes);

  int64_t row_length() const { return row_length_; }
  int64_t capacity_rows() const { return capacity_rows_; }
  int64_t rows_buffered() const {
    return capacity_rows_ - static_cast<int64_t>(free_slots_.size());
  }

  // Device-memory footprint of the buffer storage.
  size_t ByteSize() const { return storage_.size() * sizeof(double); }

  // Returns the buffered row or nullptr. Under kFifo this does not affect
  // eviction order; under kLru it refreshes recency.
  const double* Lookup(int32_t row);

  // Splits `rows` into those already buffered and those missing, preserving
  // order. Buffered hits are counted (and refreshed under kLru).
  void Partition(std::span<const int32_t> rows, std::vector<int32_t>* present,
                 std::vector<int32_t>* missing);

  // Pins `rows` so eviction skips them until the next Pin call replaces the
  // set. Call with the current working set each round.
  void Pin(std::span<const int32_t> rows);

  // Allocates storage for `rows` (which must not be buffered or pinned-
  // absent duplicates — except poisoned rows, which reuse their slot and are
  // marked clean for the caller to overwrite), evicting the oldest unpinned
  // rows as needed, never one placed earlier in the same call. Returns one
  // writable pointer per row, in order. Fails, changing nothing, if the
  // absent rows outnumber the free slots plus the buffered rows that are
  // neither pinned nor in `rows`.
  Result<std::vector<double*>> InsertBatch(std::span<const int32_t> rows);

  // Attaches a fault injector: an InsertBatch that evicts may additionally
  // poison (fill with NaN) the oldest unpinned resident row. Poisoned rows
  // behave as absent — Lookup returns nullptr and Partition reports them
  // missing — so the solver recomputes them instead of reading garbage.
  void SetFaultInjector(fault::FaultInjector* injector) { fault_ = injector; }

  // Whether `row` is currently marked poisoned (test hook).
  bool IsPoisoned(int32_t row) const { return poisoned_[Key(row)] != 0; }

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t evictions() const { return evictions_; }
  int64_t rows_poisoned() const { return rows_poisoned_; }

 private:
  // Index of `row` into the per-row arrays.
  size_t Key(int32_t row) const;
  bool IsPinned(int32_t row) const { return pin_stamp_[Key(row)] == pin_generation_; }
  // Whether buffered `row` may be evicted: not pinned and not placed by the
  // current InsertBatch call.
  bool IsEvictable(int32_t row) const {
    return !IsPinned(row) && call_stamp_[Key(row)] != call_generation_;
  }

  // Links `row` into the eviction ring as the newest row.
  void LinkNewest(int32_t row);
  // Makes buffered `row` the newest row (kLru's hit), in O(1).
  void Refresh(int32_t row);
  // Puts `row` in buffered `victim`'s place in the ring.
  void Replace(int32_t victim, int32_t row);

  // Poisons the oldest evictable row that is not poisoned yet.
  void PoisonOldestUnpinned();

  int64_t row_length_;
  int64_t capacity_rows_;
  Policy policy_;
  std::vector<double> storage_;
  std::vector<int64_t> slot_;  // row -> slot, -1 while not buffered
  // Eviction order, shared by both policies: a doubly linked ring over the
  // buffered rows, indexed by row id. oldest_ is the next victim and
  // prev_[oldest_] the newest row; -1 while nothing is buffered.
  std::vector<int32_t> prev_;
  std::vector<int32_t> next_;
  int32_t oldest_ = -1;
  // A row is pinned while its stamp equals the current Pin() generation
  // (64 bits: never wraps).
  std::vector<uint64_t> pin_stamp_;
  uint64_t pin_generation_ = 1;
  // The rows the current InsertBatch call has placed carry its stamp, the
  // same way.
  std::vector<uint64_t> call_stamp_;
  uint64_t call_generation_ = 1;
  std::vector<int64_t> free_slots_;
  std::vector<uint8_t> poisoned_;  // per row
  fault::FaultInjector* fault_ = nullptr;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t rows_poisoned_ = 0;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SOLVER_KERNEL_BUFFER_H_
