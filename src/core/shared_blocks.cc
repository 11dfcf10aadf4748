#include "core/shared_blocks.h"

#include <cstring>

#include "common/logging.h"

namespace gmpsvm {

SharedBlockCache::SharedBlockCache(const Dataset* dataset,
                                   const KernelComputer* computer,
                                   size_t budget_bytes, SimExecutor* executor)
    : dataset_(dataset), computer_(computer), budget_bytes_(budget_bytes),
      executor_(executor),
      slot_(static_cast<size_t>(dataset->size()) *
                static_cast<size_t>(dataset->num_classes()),
            -1),
      pin_stamp_(slot_.size(), 0) {
  // Reserve the cache region on the device up front, like the baseline's
  // fixed cache slice; halve until it fits alongside other reservations.
  reservation_ = executor_->AllocateHalving(&budget_bytes_);
}

size_t SharedBlockCache::FlatKey(int32_t global_row, int cls) const {
  const auto k = static_cast<size_t>(dataset_->num_classes());
  GMP_DCHECK(global_row >= 0 && cls >= 0 && static_cast<size_t>(cls) < k);
  const size_t key = static_cast<size_t>(global_row) * k + static_cast<size_t>(cls);
  GMP_DCHECK(key < slot_.size());
  return key;
}

std::span<const double> SharedBlockCache::Lookup(int32_t global_row, int cls) {
  const int32_t slot = slot_[FlatKey(global_row, cls)];
  if (slot < 0) return {};
  return segments_[static_cast<size_t>(slot)];
}

void SharedBlockCache::PinPairs(std::span<const int32_t> global_rows, int cls_a,
                                int cls_b) {
  ++pin_generation_;
  for (int32_t g : global_rows) {
    pin_stamp_[FlatKey(g, cls_a)] = pin_generation_;
    pin_stamp_[FlatKey(g, cls_b)] = pin_generation_;
  }
}

void SharedBlockCache::EvictUntilFits(size_t incoming_bytes) {
  size_t scanned = 0;
  while (bytes_used_ + incoming_bytes > budget_bytes_ && !fifo_.empty() &&
         scanned < fifo_.size() + 1) {
    const size_t victim = fifo_.front();
    fifo_.pop_front();
    ++scanned;
    if (pin_stamp_[victim] == pin_generation_) {
      fifo_.push_back(victim);
      continue;
    }
    const int32_t slot = slot_[victim];
    if (slot < 0) continue;  // already gone
    std::vector<double>& segment = segments_[static_cast<size_t>(slot)];
    bytes_used_ -= segment.size() * sizeof(double);
    std::vector<double>().swap(segment);
    free_slots_.push_back(slot);
    slot_[victim] = -1;
    scanned = 0;  // progress made; rescan allowance resets
  }
}

Status SharedBlockCache::Ensure(std::span<const int32_t> global_rows, int cls,
                                SimExecutor* executor, StreamId stream) {
  const auto& class_rows = dataset_->ClassRows(cls);
  const size_t seg_len = class_rows.size();
  if (seg_len == 0) return Status::OK();

  std::vector<int32_t> missing;
  for (int32_t g : global_rows) {
    if (slot_[FlatKey(g, cls)] >= 0) {
      ++hits_;
      executor->counters().kernel_values_reused += static_cast<int64_t>(seg_len);
    } else {
      ++misses_;
      missing.push_back(g);
    }
  }
  if (missing.empty()) return Status::OK();

  const size_t incoming = missing.size() * seg_len * sizeof(double);
  if (incoming > budget_bytes_) {
    return Status::FailedPrecondition(
        "shared block cache budget too small for one batch");
  }
  EvictUntilFits(incoming);
  if (bytes_used_ + incoming > budget_bytes_) {
    return Status::FailedPrecondition(
        "shared block cache cannot fit batch: too many pinned segments");
  }

  // One batched product for all missing segments of this class.
  scratch_.resize(missing.size() * seg_len);
  computer_->ComputeBlock(missing, class_rows, executor, stream, scratch_.data());
  for (size_t m = 0; m < missing.size(); ++m) {
    if (free_slots_.empty()) {
      free_slots_.push_back(static_cast<int32_t>(segments_.size()));
      segments_.emplace_back();
    }
    const int32_t slot = free_slots_.back();
    free_slots_.pop_back();
    const double* seg = scratch_.data() + m * seg_len;
    segments_[static_cast<size_t>(slot)].assign(seg, seg + seg_len);
    bytes_used_ += seg_len * sizeof(double);
    const size_t key = FlatKey(missing[m], cls);
    slot_[key] = slot;
    fifo_.push_back(key);
  }
  return Status::OK();
}

void SharedRowSource::ComputeRows(std::span<const int32_t> local_rows,
                                  std::span<double* const> dest,
                                  SimExecutor* executor, StreamId stream) {
  if (local_rows.empty()) return;
  // One round (pin + ensure both classes + assemble) is the unit of cache
  // consistency; hold the round mutex across all of it.
  std::lock_guard<std::mutex> round_lock(cache_->round_mutex());
  globals_.resize(local_rows.size());
  for (size_t k = 0; k < local_rows.size(); ++k) {
    globals_[k] = problem_->rows[static_cast<size_t>(local_rows[k])];
  }

  // Pin this round's segments of BOTH classes, then make them resident: the
  // class-t insertions must not evict class-s hits that were cached long ago
  // (and so sit near the FIFO front). Falls back to an unshared direct
  // computation when the budget cannot hold one round.
  cache_->PinPairs(globals_, class_s_, class_t_);
  Status st = cache_->Ensure(globals_, class_s_, executor, stream);
  if (st.ok()) st = cache_->Ensure(globals_, class_t_, executor, stream);
  if (!st.ok()) {
    GMP_LOG(Warning) << "shared block cache fallback: " << st.ToString();
    fallback_.ComputeRows(local_rows, dest, executor, stream);
    return;
  }

  // The second Ensure can, under a tight budget, evict segments the first
  // one just stored (it only pins its own class). Verify everything is still
  // resident before assembling; otherwise compute the batch directly.
  for (size_t k = 0; k < local_rows.size(); ++k) {
    if (cache_->Lookup(globals_[k], class_s_).size() != class_s_count_ ||
        cache_->Lookup(globals_[k], class_t_).size() !=
            static_cast<size_t>(problem_->n()) - class_s_count_) {
      GMP_LOG(Warning) << "shared block cache thrashing; computing batch directly";
      fallback_.ComputeRows(local_rows, dest, executor, stream);
      return;
    }
  }

  // Assemble: dest row = [K(g, X_s) | K(g, X_t)] in problem-local order
  // (the problem's first class_s_count_ instances are class s, the rest t).
  double copied = 0.0;
  for (size_t k = 0; k < local_rows.size(); ++k) {
    auto seg_s = cache_->Lookup(globals_[k], class_s_);
    auto seg_t = cache_->Lookup(globals_[k], class_t_);
    std::memcpy(dest[k], seg_s.data(), seg_s.size() * sizeof(double));
    std::memcpy(dest[k] + seg_s.size(), seg_t.data(), seg_t.size() * sizeof(double));
    copied += static_cast<double>(seg_s.size() + seg_t.size());
  }
  TaskCost copy_cost;
  copy_cost.parallel_items = static_cast<int64_t>(copied);
  copy_cost.bytes_read = copied * sizeof(double);
  copy_cost.bytes_written = copied * sizeof(double);
  executor->Charge(stream, copy_cost);
}

}  // namespace gmpsvm
