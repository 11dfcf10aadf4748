// Dataset splitting utilities: stratified k-fold partitions and row
// subsets, used by the cross-validation driver.

#ifndef GMPSVM_DATA_SPLIT_H_
#define GMPSVM_DATA_SPLIT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"

namespace gmpsvm {

// Stratified k-fold partition: returns `folds` row-id lists whose union is
// all rows, each with ~1/folds of every class.
Result<std::vector<std::vector<int32_t>>> StratifiedFolds(const Dataset& dataset,
                                                          int folds, uint64_t seed);

// Builds a Dataset from a row subset (preserving the parent's class count).
Result<Dataset> SubsetDataset(const Dataset& dataset,
                              const std::vector<int32_t>& rows);

}  // namespace gmpsvm

#endif  // GMPSVM_DATA_SPLIT_H_
