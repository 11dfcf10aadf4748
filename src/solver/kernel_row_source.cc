#include "solver/kernel_row_source.h"

#include <cstring>

namespace gmpsvm {

void DirectRowSource::ComputeRows(std::span<const int32_t> local_rows,
                                  std::span<double* const> dest,
                                  SimExecutor* executor, StreamId stream) {
  if (local_rows.empty()) return;
  const size_t len = static_cast<size_t>(end_ - begin_);
  batch_globals_.resize(local_rows.size());
  for (size_t k = 0; k < local_rows.size(); ++k) {
    batch_globals_[k] = problem_->rows[static_cast<size_t>(local_rows[k])];
  }
  scratch_.resize(local_rows.size() * len);
  // Block values are per-element independent of the target subset
  // (kernel_computer.h), so a slice holds the full rows' bits.
  const std::span<const int32_t> targets(problem_->rows.data() + begin_, len);
  computer_->ComputeBlock(batch_globals_, targets, executor, stream,
                          scratch_.data());
  // Scatter the contiguous block into the buffer slots (device-side copy).
  for (size_t k = 0; k < local_rows.size(); ++k) {
    std::memcpy(dest[k] + begin_, scratch_.data() + k * len,
                len * sizeof(double));
  }
  TaskCost copy_cost;
  copy_cost.parallel_items = static_cast<int64_t>(local_rows.size() * len);
  copy_cost.bytes_read =
      static_cast<double>(local_rows.size() * len) * sizeof(double);
  copy_cost.bytes_written = copy_cost.bytes_read;
  executor->Charge(stream, copy_cost);
}

}  // namespace gmpsvm
