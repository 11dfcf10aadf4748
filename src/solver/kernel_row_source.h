// Abstraction over where a binary problem's kernel rows come from.
//
// The batched solver requests q rows at a time; a DirectRowSource computes
// them with one batched sparse product (the binary-SVM-level technique),
// while the MP-SVM-level SharedRowSource (src/core/shared_blocks.h) assembles
// rows from class-block segments shared across concurrently-trained binary
// SVMs (Figure 3 of the paper). On a shard group each shard computes its
// column slice of the rows through a DirectRowSource over its range.

#ifndef GMPSVM_SOLVER_KERNEL_ROW_SOURCE_H_
#define GMPSVM_SOLVER_KERNEL_ROW_SOURCE_H_

#include <span>
#include <vector>

#include "device/executor.h"
#include "kernel/kernel_computer.h"
#include "solver/svm_problem.h"

namespace gmpsvm {

class KernelRowSource {
 public:
  virtual ~KernelRowSource() = default;

  // Fills dest[k][0..n) with the kernel row of local instance local_rows[k]
  // against all n instances of the problem, charging `executor` on `stream`.
  virtual void ComputeRows(std::span<const int32_t> local_rows,
                           std::span<double* const> dest, SimExecutor* executor,
                           StreamId stream) = 0;
};

// Computes rows directly from the feature matrix as one batched product:
// whole rows, or only the columns [begin, end) of each row (written to
// dest[k][begin..end)).
class DirectRowSource : public KernelRowSource {
 public:
  // Both referents must outlive the source.
  DirectRowSource(const BinaryProblem* problem, const KernelComputer* computer)
      : DirectRowSource(problem, computer, 0, problem->n()) {}
  DirectRowSource(const BinaryProblem* problem, const KernelComputer* computer,
                  int64_t begin, int64_t end)
      : problem_(problem), computer_(computer), begin_(begin), end_(end) {}

  void ComputeRows(std::span<const int32_t> local_rows,
                   std::span<double* const> dest, SimExecutor* executor,
                   StreamId stream) override;

 private:
  const BinaryProblem* problem_;
  const KernelComputer* computer_;
  int64_t begin_;
  int64_t end_;
  std::vector<double> scratch_;
  std::vector<int32_t> batch_globals_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SOLVER_KERNEL_ROW_SOURCE_H_
