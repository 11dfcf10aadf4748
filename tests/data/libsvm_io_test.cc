#include "data/libsvm_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace gmpsvm {
namespace {

TEST(ParseLibsvmTest, BasicParse) {
  const std::string content =
      "1 1:0.5 3:1.25\n"
      "-1 2:2\n"
      "1 1:1 2:1 3:1\n";
  auto file = ValueOrDie(ParseLibsvm(content));
  EXPECT_EQ(file.dataset.size(), 3);
  EXPECT_EQ(file.dataset.dim(), 3);
  EXPECT_EQ(file.dataset.num_classes(), 2);
  // Label values in order of first appearance: 1 then -1.
  EXPECT_EQ(file.label_values, (std::vector<int32_t>{1, -1}));
  EXPECT_EQ(file.dataset.labels(), (std::vector<int32_t>{0, 1, 0}));
  // 1-based indices became 0-based.
  EXPECT_EQ(file.dataset.features().RowIndices(0)[0], 0);
  EXPECT_DOUBLE_EQ(file.dataset.features().RowValues(0)[1], 1.25);
}

TEST(ParseLibsvmTest, SkipsCommentsAndBlankLines) {
  const std::string content =
      "# a comment\n"
      "\n"
      "2 1:1\n"
      "   \n"
      "7 2:1\n";
  auto file = ValueOrDie(ParseLibsvm(content));
  EXPECT_EQ(file.dataset.size(), 2);
  EXPECT_EQ(file.label_values, (std::vector<int32_t>{2, 7}));
}

TEST(ParseLibsvmTest, FloatLabelsRounded) {
  auto file = ValueOrDie(ParseLibsvm("1.0 1:1\n-1.0 2:1\n"));
  EXPECT_EQ(file.label_values, (std::vector<int32_t>{1, -1}));
}

TEST(ParseLibsvmTest, MinDimPadsFeatureSpace) {
  auto file = ValueOrDie(ParseLibsvm("1 1:1\n0 2:1\n", /*min_dim=*/100));
  EXPECT_EQ(file.dataset.dim(), 100);
}

TEST(ParseLibsvmTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseLibsvm("abc 1:1\n0 1:2\n").ok());       // bad label
  EXPECT_FALSE(ParseLibsvm("1 1:1 1:2\n0 1:2\n").ok());     // duplicate index
  EXPECT_FALSE(ParseLibsvm("1 3:1 2:2\n0 1:2\n").ok());     // unsorted
  EXPECT_FALSE(ParseLibsvm("1 0:1\n0 1:2\n").ok());         // 0 index (1-based)
  EXPECT_FALSE(ParseLibsvm("1 1:x\n0 1:2\n").ok());         // bad value
  EXPECT_FALSE(ParseLibsvm("1 1\n0 1:2\n").ok());           // missing colon
}

// Non-finite or out-of-range labels and non-finite feature values are
// rejected with an IoError naming the line, not converted or passed on.
TEST(ParseLibsvmTest, RejectsNonFiniteAndOutOfRangeInput) {
  for (const char* content : {
           "1 1:1\nnan 1:2\n", "1 1:1\n-inf 1:2\n", "1 1:1\n3e9 1:2\n",
           "1 1:1\n-2147483648.5 1:2\n", "1 1:1\n0 1:nan\n", "1 1:1\n0 1:2 2:inf\n",
           "1 1:1\n0 1:-INF\n"}) {
    const auto parsed = ParseLibsvm(content);
    ASSERT_FALSE(parsed.ok()) << content;
    EXPECT_TRUE(parsed.status().IsIoError()) << content;
    EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
        << parsed.status().ToString();
  }
  // The 32-bit extremes themselves still parse.
  auto file = ValueOrDie(ParseLibsvm("2147483647 1:1\n-2147483648 1:2\n"));
  EXPECT_EQ(file.label_values, (std::vector<int32_t>{2147483647, -2147483647 - 1}));
}

TEST(ParseLibsvmTest, ScientificNotationValues) {
  auto file = ValueOrDie(ParseLibsvm("1 1:1e-3 2:2.5E2\n0 1:-4e0\n"));
  EXPECT_DOUBLE_EQ(file.dataset.features().RowValues(0)[0], 1e-3);
  EXPECT_DOUBLE_EQ(file.dataset.features().RowValues(0)[1], 250.0);
  EXPECT_DOUBLE_EQ(file.dataset.features().RowValues(1)[0], -4.0);
}

TEST(LibsvmFileRoundTripTest, WriteThenRead) {
  auto original = ValueOrDie(ParseLibsvm(
      "3 1:0.5 4:2\n"
      "5 2:1.5\n"
      "3 1:1 2:2 3:3 4:4\n"
      "9 4:0.25\n"));
  const std::string path = ::testing::TempDir() + "/libsvm_io_test.txt";
  GMP_CHECK_OK(
      WriteLibsvmFile(path, original.dataset, original.label_values));
  auto reread = ValueOrDie(ReadLibsvmFile(path));
  EXPECT_EQ(reread.dataset.size(), original.dataset.size());
  EXPECT_EQ(reread.label_values, original.label_values);
  EXPECT_EQ(reread.dataset.labels(), original.dataset.labels());
  EXPECT_EQ(reread.dataset.features().col_idx(),
            original.dataset.features().col_idx());
  for (size_t v = 0; v < original.dataset.features().values().size(); ++v) {
    EXPECT_DOUBLE_EQ(reread.dataset.features().values()[v],
                     original.dataset.features().values()[v]);
  }
  std::remove(path.c_str());
}

TEST(ReadLibsvmFileTest, MissingFileFails) {
  auto result = ReadLibsvmFile("/nonexistent/file.libsvm");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

TEST(ParseLibsvmTest, MulticlassLabelRemap) {
  auto file = ValueOrDie(ParseLibsvm(
      "10 1:1\n20 1:1\n30 1:1\n20 2:1\n10 3:1\n30 1:2\n"));
  EXPECT_EQ(file.dataset.num_classes(), 3);
  EXPECT_EQ(file.label_values, (std::vector<int32_t>{10, 20, 30}));
  EXPECT_EQ(file.dataset.labels(), (std::vector<int32_t>{0, 1, 2, 1, 0, 2}));
}

}  // namespace
}  // namespace gmpsvm
