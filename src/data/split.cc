#include "data/split.h"

#include <algorithm>

#include "common/rng.h"
#include "common/string_util.h"

namespace gmpsvm {

Result<Dataset> SubsetDataset(const Dataset& dataset,
                              const std::vector<int32_t>& rows) {
  if (rows.empty()) return Status::InvalidArgument("empty row subset");
  std::vector<int32_t> labels;
  labels.reserve(rows.size());
  for (int32_t r : rows) {
    if (r < 0 || r >= dataset.size()) {
      return Status::InvalidArgument(StrPrintf("row %d out of range", r));
    }
    labels.push_back(dataset.labels()[static_cast<size_t>(r)]);
  }
  return Dataset::Create(dataset.features().SelectRows(rows), std::move(labels),
                         dataset.num_classes(), dataset.name());
}

Result<std::vector<std::vector<int32_t>>> StratifiedFolds(const Dataset& dataset,
                                                          int folds, uint64_t seed) {
  if (folds < 2) return Status::InvalidArgument("need at least 2 folds");
  if (folds > dataset.size()) {
    return Status::InvalidArgument("more folds than instances");
  }
  Rng rng(seed);
  std::vector<std::vector<int32_t>> out(static_cast<size_t>(folds));
  for (int c = 0; c < dataset.num_classes(); ++c) {
    std::vector<int32_t> rows = dataset.ClassRows(c);
    rng.Shuffle(&rows);
    for (size_t i = 0; i < rows.size(); ++i) {
      out[i % static_cast<size_t>(folds)].push_back(rows[i]);
    }
  }
  for (auto& fold : out) std::sort(fold.begin(), fold.end());
  return out;
}

}  // namespace gmpsvm
