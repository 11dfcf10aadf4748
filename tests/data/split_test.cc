#include "data/split.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "../test_util.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

TEST(SubsetDatasetTest, SelectsRowsAndLabels) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 10, 4, 2.0, 42));
  std::vector<int32_t> rows = {0, 5, 10, 29};
  auto subset = ValueOrDie(SubsetDataset(data, rows));
  EXPECT_EQ(subset.size(), 4);
  EXPECT_EQ(subset.num_classes(), 3);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(subset.labels()[i], data.labels()[static_cast<size_t>(rows[i])]);
    EXPECT_DOUBLE_EQ(subset.features().RowValues(static_cast<int64_t>(i))[0],
                     data.features().RowValues(rows[i])[0]);
  }
}

TEST(SubsetDatasetTest, RejectsBadRows) {
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 5, 3, 2.0, 1));
  EXPECT_FALSE(SubsetDataset(data, {}).ok());
  EXPECT_FALSE(SubsetDataset(data, {100}).ok());
  EXPECT_FALSE(SubsetDataset(data, {-1}).ok());
}

TEST(StratifiedFoldsTest, FoldsPartitionAllRows) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 21, 4, 2.0, 23));
  auto folds = ValueOrDie(StratifiedFolds(data, 5, 29));
  ASSERT_EQ(folds.size(), 5u);
  std::set<int32_t> seen;
  for (const auto& fold : folds) {
    for (int32_t r : fold) EXPECT_TRUE(seen.insert(r).second);
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), data.size());
}

TEST(StratifiedFoldsTest, FoldsAreStratified) {
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 50, 4, 2.0, 31));
  auto folds = ValueOrDie(StratifiedFolds(data, 5, 37));
  for (const auto& fold : folds) {
    int c0 = 0, c1 = 0;
    for (int32_t r : fold) {
      (data.labels()[static_cast<size_t>(r)] == 0 ? c0 : c1)++;
    }
    EXPECT_EQ(c0, 10);
    EXPECT_EQ(c1, 10);
  }
}

TEST(StratifiedFoldsTest, RejectsBadFoldCounts) {
  auto data = ValueOrDie(MakeMulticlassBlobs(2, 3, 3, 2.0, 41));
  EXPECT_FALSE(StratifiedFolds(data, 1, 1).ok());
  EXPECT_FALSE(StratifiedFolds(data, 100, 1).ok());
}

}  // namespace
}  // namespace gmpsvm
