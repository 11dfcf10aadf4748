#include "solver/kernel_buffer.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"
#include "fault/fault_injector.h"

namespace gmpsvm {

KernelBuffer::KernelBuffer(int64_t row_length, int64_t capacity_rows,
                           Policy policy)
    : row_length_(std::max<int64_t>(1, row_length)),
      capacity_rows_(std::max<int64_t>(1, capacity_rows)),
      policy_(policy),
      slot_(static_cast<size_t>(row_length_), -1),
      prev_(slot_.size(), -1),
      next_(slot_.size(), -1),
      pin_stamp_(slot_.size(), 0),
      call_stamp_(slot_.size(), 0),
      poisoned_(slot_.size(), 0) {
  storage_.resize(static_cast<size_t>(row_length_ * capacity_rows_));
  free_slots_.reserve(static_cast<size_t>(capacity_rows_));
  for (int64_t s = capacity_rows_ - 1; s >= 0; --s) free_slots_.push_back(s);
}

int64_t KernelBuffer::CacheRows(int64_t row_length, size_t bytes) {
  const int64_t n = std::max<int64_t>(1, row_length);
  return std::min(n, std::max<int64_t>(2, static_cast<int64_t>(
                                              bytes / (sizeof(double) * n))));
}

size_t KernelBuffer::Key(int32_t row) const {
  GMP_DCHECK(row >= 0 && row < row_length_);
  return static_cast<size_t>(row);
}

void KernelBuffer::LinkNewest(int32_t row) {
  if (oldest_ < 0) {
    prev_[row] = next_[row] = oldest_ = row;
    return;
  }
  const int32_t newest = prev_[oldest_];
  prev_[row] = newest;
  next_[row] = oldest_;
  next_[newest] = row;
  prev_[oldest_] = row;
}

void KernelBuffer::Refresh(int32_t row) {
  if (row == oldest_) {
    oldest_ = next_[row];  // the ring turns by one: row is now the newest
    return;
  }
  next_[prev_[row]] = next_[row];
  prev_[next_[row]] = prev_[row];
  LinkNewest(row);
}

void KernelBuffer::Replace(int32_t victim, int32_t row) {
  if (next_[victim] == victim) {  // the only buffered row
    prev_[row] = next_[row] = row;
    return;
  }
  const int32_t before = prev_[victim];
  const int32_t after = next_[victim];
  prev_[row] = before;
  next_[row] = after;
  next_[before] = row;
  prev_[after] = row;
}

const double* KernelBuffer::Lookup(int32_t row) {
  const int64_t slot = slot_[Key(row)];
  if (slot < 0 || poisoned_[Key(row)] != 0) return nullptr;
  if (policy_ == Policy::kLru) Refresh(row);
  return storage_.data() + slot * row_length_;
}

void KernelBuffer::Partition(std::span<const int32_t> rows,
                             std::vector<int32_t>* present,
                             std::vector<int32_t>* missing) {
  present->clear();
  missing->clear();
  for (int32_t row : rows) {
    // Poisoned rows are resident but unusable: report them missing so the
    // caller recomputes their values (InsertBatch reuses their slot).
    if (slot_[Key(row)] >= 0 && poisoned_[Key(row)] == 0) {
      present->push_back(row);
      ++hits_;
      if (policy_ == Policy::kLru) Refresh(row);
    } else {
      missing->push_back(row);
      ++misses_;
    }
  }
}

void KernelBuffer::Pin(std::span<const int32_t> rows) {
  ++pin_generation_;
  for (int32_t row : rows) pin_stamp_[Key(row)] = pin_generation_;
}

Result<std::vector<double*>> KernelBuffer::InsertBatch(
    std::span<const int32_t> rows) {
  // Count the slots before changing anything, so a call that cannot place
  // every row leaves the buffer as it found it. Each absent row takes a free
  // slot or evicts an unpinned row from outside the call. A poisoned row of
  // the call may be evicted before its turn, but then needs a slot itself,
  // so it counts for neither side.
  int64_t absent = 0;
  int64_t unpinned_in_call = 0;
  for (int32_t row : rows) {
    if (slot_[Key(row)] < 0) {
      ++absent;
    } else if (!IsPinned(row)) {
      ++unpinned_in_call;
    }
  }
  const int64_t num_free = static_cast<int64_t>(free_slots_.size());
  if (absent > num_free) {
    int64_t unpinned_needed = absent - num_free + unpinned_in_call;
    int32_t walk = oldest_;
    for (int64_t i = 0; i < rows_buffered() && unpinned_needed > 0;
         ++i, walk = next_[walk]) {
      if (!IsPinned(walk)) --unpinned_needed;
    }
    if (unpinned_needed > 0) {
      return Status::FailedPrecondition(StrPrintf(
          "kernel buffer exhausted: %lld rows to place, %lld free slots and "
          "%lld unpinned rows outside the call",
          static_cast<long long>(absent), static_cast<long long>(num_free),
          static_cast<long long>(absent - num_free - unpinned_needed)));
    }
  }
  ++call_generation_;

  std::vector<double*> out;
  out.reserve(rows.size());
  bool evicted_any = false;
  for (int32_t row : rows) {
    if (slot_[Key(row)] >= 0) {
      // Only a poisoned row may be re-inserted: it keeps its slot and its
      // place in the eviction ring; the caller overwrites the values.
      GMP_DCHECK(poisoned_[Key(row)] != 0);
      poisoned_[Key(row)] = 0;
      call_stamp_[Key(row)] = call_generation_;
      out.push_back(storage_.data() + slot_[Key(row)] * row_length_);
      continue;
    }
    int64_t slot = -1;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      LinkNewest(row);
    } else {
      // Evict the oldest row that is neither pinned nor placed by this call
      // (the count above guarantees one): row takes its place in the ring,
      // and the ring turns to start just after row, so row is the newest and
      // the rows skipped ahead of the victim follow the rest in their order
      // (they stay buffered, just deferred).
      int32_t victim = oldest_;
      while (!IsEvictable(victim)) victim = next_[victim];
      Replace(victim, row);
      oldest_ = next_[row];
      slot = slot_[Key(victim)];
      GMP_DCHECK(slot >= 0);
      slot_[Key(victim)] = -1;
      poisoned_[Key(victim)] = 0;
      ++evictions_;
      evicted_any = true;
    }
    slot_[Key(row)] = slot;
    call_stamp_[Key(row)] = call_generation_;
    out.push_back(storage_.data() + slot * row_length_);
  }
  // Fault hook: an eviction pass may corrupt a bystander row (models a bad
  // DMA overwriting a neighbor). Never the rows just inserted — the caller
  // is about to fill those — and never a pinned row, which the current
  // round reads without re-checking.
  if (evicted_any && fault_ != nullptr &&
      fault_->ShouldInject(fault::Site::kBufferEvict)) {
    PoisonOldestUnpinned();
  }
  return out;
}

void KernelBuffer::PoisonOldestUnpinned() {
  int32_t row = oldest_;
  for (int64_t i = 0; i < rows_buffered(); ++i, row = next_[row]) {
    if (!IsEvictable(row) || poisoned_[Key(row)] != 0) continue;
    double* data = storage_.data() + slot_[Key(row)] * row_length_;
    std::fill(data, data + row_length_,
              std::numeric_limits<double>::quiet_NaN());
    poisoned_[Key(row)] = 1;
    ++rows_poisoned_;
    return;
  }
}

}  // namespace gmpsvm
