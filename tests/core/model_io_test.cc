#include "core/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "../test_util.h"
#include "common/string_util.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

MpSvmModel TrainSmallModel(uint64_t seed) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 20, 5, 2.5, seed));
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 16;
  options.batch.working_set.q = 8;
  options.shared_cache_bytes = 16ull << 20;
  SimExecutor exec(ExecutorModel::TeslaP100());
  return ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));
}

void ExpectModelsEqual(const MpSvmModel& a, const MpSvmModel& b) {
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_DOUBLE_EQ(a.c, b.c);
  EXPECT_EQ(a.kernel.type, b.kernel.type);
  EXPECT_DOUBLE_EQ(a.kernel.gamma, b.kernel.gamma);
  ASSERT_EQ(a.svms.size(), b.svms.size());
  for (size_t s = 0; s < a.svms.size(); ++s) {
    EXPECT_EQ(a.svms[s].class_s, b.svms[s].class_s);
    EXPECT_EQ(a.svms[s].class_t, b.svms[s].class_t);
    EXPECT_DOUBLE_EQ(a.svms[s].bias, b.svms[s].bias);
    EXPECT_DOUBLE_EQ(a.svms[s].sigmoid.a, b.svms[s].sigmoid.a);
    EXPECT_DOUBLE_EQ(a.svms[s].sigmoid.b, b.svms[s].sigmoid.b);
    EXPECT_EQ(a.svms[s].sv_pool_index, b.svms[s].sv_pool_index);
    ASSERT_EQ(a.svms[s].sv_coef.size(), b.svms[s].sv_coef.size());
    for (size_t m = 0; m < a.svms[s].sv_coef.size(); ++m) {
      EXPECT_DOUBLE_EQ(a.svms[s].sv_coef[m], b.svms[s].sv_coef[m]);
    }
  }
  EXPECT_EQ(a.pool_source_rows, b.pool_source_rows);
  ASSERT_EQ(a.support_vectors.rows(), b.support_vectors.rows());
  EXPECT_EQ(a.support_vectors.col_idx(), b.support_vectors.col_idx());
  ASSERT_EQ(a.support_vectors.values().size(), b.support_vectors.values().size());
  for (size_t v = 0; v < a.support_vectors.values().size(); ++v) {
    EXPECT_DOUBLE_EQ(a.support_vectors.values()[v], b.support_vectors.values()[v]);
  }
}

TEST(ModelIoTest, SerializeDeserializeRoundTrip) {
  MpSvmModel model = TrainSmallModel(42);
  const std::string text = SerializeModel(model);
  auto restored = ValueOrDie(DeserializeModel(text));
  ExpectModelsEqual(model, restored);
}

TEST(ModelIoTest, RestoredModelPredictsIdentically) {
  MpSvmModel model = TrainSmallModel(7);
  auto restored = ValueOrDie(DeserializeModel(SerializeModel(model)));
  auto test = ValueOrDie(MakeMulticlassBlobs(3, 10, 5, 2.5, 999));
  SimExecutor e1(ExecutorModel::TeslaP100()), e2(ExecutorModel::TeslaP100());
  auto r1 = ValueOrDie(
      MpSvmPredictor(&model).Predict(test.features(), &e1, PredictOptions{}));
  auto r2 = ValueOrDie(
      MpSvmPredictor(&restored).Predict(test.features(), &e2, PredictOptions{}));
  EXPECT_EQ(r1.probabilities, r2.probabilities);
  EXPECT_EQ(r1.labels, r2.labels);
}

TEST(ModelIoTest, SaveAndLoadFile) {
  MpSvmModel model = TrainSmallModel(11);
  const std::string path = ::testing::TempDir() + "/gmpsvm_model_test.txt";
  GMP_CHECK_OK(SaveModel(model, path));
  auto loaded = ValueOrDie(LoadModel(path));
  ExpectModelsEqual(model, loaded);
  std::remove(path.c_str());
}

TEST(ModelIoTest, RejectsBadMagic) {
  EXPECT_FALSE(DeserializeModel("not_a_model\nfoo").ok());
  EXPECT_FALSE(DeserializeModel("").ok());
}

TEST(ModelIoTest, RejectsTruncatedModel) {
  MpSvmModel model = TrainSmallModel(13);
  std::string text = SerializeModel(model);
  text.resize(text.size() / 2);
  EXPECT_FALSE(DeserializeModel(text).ok());
}

TEST(ModelIoTest, RejectsOutOfRangeSvIndex) {
  MpSvmModel model = TrainSmallModel(17);
  std::string text = SerializeModel(model);
  // Corrupt: the pool index "0:" of the first SV becomes huge.
  const size_t pos = text.find("\nsvm ");
  ASSERT_NE(pos, std::string::npos);
  const size_t line_end = text.find('\n', pos + 1);
  text.insert(line_end + 1, "999999:1.0 ");
  EXPECT_FALSE(DeserializeModel(text).ok());
}

TEST(ModelIoTest, RejectsPairsOutOfPairOrder) {
  // Prediction finds pair (s, t) at svms[PairIndex(s, t)], so a model must
  // hold the k(k-1)/2 pairs (0,1), (0,2), ..., (1,2), ... in that order.
  const MpSvmModel model = TrainSmallModel(23);
  ASSERT_EQ(model.svms.size(), 3u);
  ASSERT_TRUE(model.has_cascade_stats());
  const auto edited = [&](auto edit) {
    MpSvmModel copy = model;
    edit(copy);
    return DeserializeModel(SerializeModel(copy));
  };
  const struct {
    const char* name;
    Result<MpSvmModel> result;
  } kCases[] = {
      {"swapped entries", edited([](MpSvmModel& m) {
         std::swap(m.svms[0], m.svms[2]);
         std::swap(m.cascade[0], m.cascade[2]);
       })},
      {"missing pair", edited([](MpSvmModel& m) {
         m.svms.pop_back();
         m.cascade.pop_back();
       })},
      {"extra pair", edited([](MpSvmModel& m) {
         m.svms.push_back(m.svms.back());
         m.cascade.push_back(m.cascade.back());
       })},
      {"classes reversed", edited([](MpSvmModel& m) {
         std::swap(m.svms[0].class_s, m.svms[0].class_t);
       })},
      {"class out of range", edited([](MpSvmModel& m) {
         m.svms[2].class_t = m.num_classes;
       })},
  };
  for (const auto& test_case : kCases) {
    ASSERT_FALSE(test_case.result.ok()) << "accepted: " << test_case.name;
    EXPECT_TRUE(test_case.result.status().IsIoError()) << test_case.name;
  }
  EXPECT_TRUE(edited([](MpSvmModel&) {}).ok());
}

// Fuzz-ish robustness table: every malformed input must come back as an
// error Result — no exception, no abort, no absurd allocation. The serving
// layer loads models from disk at runtime, so the parser is attack surface.
TEST(ModelIoTest, MalformedInputsReturnErrorsNeverCrash) {
  const std::string valid = SerializeModel(TrainSmallModel(19));
  const struct {
    const char* name;
    std::string text;
  } kCases[] = {
      {"empty", ""},
      {"whitespace only", "   \n\t\n  "},
      {"wrong magic", "libsvm_model\nnum_classes 3\n"},
      {"magic only", "gmpsvm_model_v1\n"},
      {"truncated header", "gmpsvm_model_v1\nnum_classes 3\nc 1.0\n"},
      {"non-numeric num_classes", "gmpsvm_model_v1\nnum_classes abc\n"},
      {"one class", "gmpsvm_model_v1\nnum_classes 1\nc 1\n"
                    "kernel gaussian 0.5 0 3\npool 0 0\nsvms 0\npool_rows\n"},
      {"negative pool rows", "gmpsvm_model_v1\nnum_classes 3\nc 1\n"
                             "kernel gaussian 0.5 0 3\npool -4 5\nsvms 0\n"},
      {"unknown kernel", "gmpsvm_model_v1\nnum_classes 3\nc 1\n"
                         "kernel quantum 0.5 0 3\npool 0 0\nsvms 0\n"},
      // Hostile counts: must be rejected before any allocation attempt.
      {"huge pool count", "gmpsvm_model_v1\nnum_classes 3\nc 1\n"
                          "kernel gaussian 0.5 0 3\npool 999999999999999999 5\n"
                          "svms 0\npool_rows\n"},
      {"huge svm count", "gmpsvm_model_v1\nnum_classes 3\nc 1\n"
                         "kernel gaussian 0.5 0 3\npool 0 5\n"
                         "svms 999999999999999999\n"},
      {"negative svm count", "gmpsvm_model_v1\nnum_classes 3\nc 1\n"
                             "kernel gaussian 0.5 0 3\npool 0 5\nsvms -1\n"},
      {"huge nsv", "gmpsvm_model_v1\nnum_classes 2\nc 1\n"
                   "kernel gaussian 0.5 0 3\npool 1 5\nsvms 1\n"
                   "svm 0 1 0.0 1.0 0.0 999999999999999999\n"},
      // Non-numeric / overflowing sv tokens: std::stol would have thrown.
      {"alpha sv index", "gmpsvm_model_v1\nnum_classes 2\nc 1\n"
                         "kernel gaussian 0.5 0 3\npool 1 5\nsvms 1\n"
                         "svm 0 1 0.0 1.0 0.0 1\nabc:1.0\npool_rows 0\n0:1\n"},
      {"alpha sv coef", "gmpsvm_model_v1\nnum_classes 2\nc 1\n"
                        "kernel gaussian 0.5 0 3\npool 1 5\nsvms 1\n"
                        "svm 0 1 0.0 1.0 0.0 1\n0:xyz\npool_rows 0\n0:1\n"},
      {"overflow sv index", "gmpsvm_model_v1\nnum_classes 2\nc 1\n"
                            "kernel gaussian 0.5 0 3\npool 1 5\nsvms 1\n"
                            "svm 0 1 0.0 1.0 0.0 1\n"
                            "99999999999999999999999:1.0\npool_rows 0\n0:1\n"},
      {"missing colon", "gmpsvm_model_v1\nnum_classes 2\nc 1\n"
                        "kernel gaussian 0.5 0 3\npool 1 5\nsvms 1\n"
                        "svm 0 1 0.0 1.0 0.0 1\n17\npool_rows 0\n0:1\n"},
      {"bad pool token", "gmpsvm_model_v1\nnum_classes 2\nc 1\n"
                         "kernel gaussian 0.5 0 3\npool 1 5\nsvms 0\n"
                         "pool_rows 0\nfoo:bar\n"},
      {"pool col out of range", "gmpsvm_model_v1\nnum_classes 2\nc 1\n"
                                "kernel gaussian 0.5 0 3\npool 1 5\nsvms 0\n"
                                "pool_rows 0\n12:1.0\n"},
      {"duplicate pool cols", "gmpsvm_model_v1\nnum_classes 2\nc 1\n"
                              "kernel gaussian 0.5 0 3\npool 1 5\nsvms 0\n"
                              "pool_rows 0\n2:1.0 2:2.0\n"},
      {"missing pool row", "gmpsvm_model_v1\nnum_classes 2\nc 1\n"
                           "kernel gaussian 0.5 0 3\npool 2 5\nsvms 0\n"
                           "pool_rows 0 1\n0:1.0\n"},
      {"binary junk", std::string("gmpsvm_model_v1\n\x01\x02\xff\xfe\x00junk",
                                  25)},
      {"valid with junk magic suffix", "x" + valid},
      // v2 cascade section edges: the count must equal the svm count, every
      // entry must be a full numeric triple, and the section must still be
      // followed by pool_rows.
      {"cascade count mismatch", "gmpsvm_model_v2\nnum_classes 2\nc 1\n"
                                 "kernel gaussian 0.5 0 3\npool 1 5\nsvms 1\n"
                                 "svm 0 1 0.0 1.0 0.0 1\n0:1.0\n"
                                 "cascade 2\n0.5 0.5 0.5\n0.5 0.5 0.5\n"
                                 "pool_rows 0\n0:1\n"},
      {"cascade huge count", "gmpsvm_model_v2\nnum_classes 2\nc 1\n"
                             "kernel gaussian 0.5 0 3\npool 1 5\nsvms 1\n"
                             "svm 0 1 0.0 1.0 0.0 1\n0:1.0\n"
                             "cascade 999999999999999999\n"},
      {"cascade non-numeric entry", "gmpsvm_model_v2\nnum_classes 2\nc 1\n"
                                    "kernel gaussian 0.5 0 3\npool 1 5\n"
                                    "svms 1\nsvm 0 1 0.0 1.0 0.0 1\n0:1.0\n"
                                    "cascade 1\n0.5 abc 0.5\npool_rows 0\n"
                                    "0:1\n"},
      {"cascade truncated entry", "gmpsvm_model_v2\nnum_classes 2\nc 1\n"
                                  "kernel gaussian 0.5 0 3\npool 1 5\nsvms 1\n"
                                  "svm 0 1 0.0 1.0 0.0 1\n0:1.0\n"
                                  "cascade 1\n0.5 0.5\n"},
      {"cascade without pool_rows", "gmpsvm_model_v2\nnum_classes 2\nc 1\n"
                                    "kernel gaussian 0.5 0 3\npool 1 5\n"
                                    "svms 1\nsvm 0 1 0.0 1.0 0.0 1\n0:1.0\n"
                                    "cascade 1\n0.5 0.5 0.5\n"},
  };
  for (const auto& test_case : kCases) {
    auto result = DeserializeModel(test_case.text);
    EXPECT_FALSE(result.ok()) << "accepted malformed input: " << test_case.name;
  }
  // Truncation at every 16th byte boundary: error or (for a prefix that is
  // accidentally complete) success — but never a crash.
  for (size_t cut = 0; cut < valid.size(); cut += 16) {
    (void)DeserializeModel(valid.substr(0, cut));
  }
}

// A model file's text is a format contract. Its kernel line keeps the two
// numbers `0 3` that files carried when the format named four kernels, so a
// file written then loads and re-saves byte for byte. The Gaussian is the
// only kernel now: a file naming another is rejected, with the kernel's name.
TEST(ModelIoTest, KernelLineFormatContract) {
  const std::string kernel_line = "kernel gaussian 0.29999999999999999 0 3\n";
  const std::string text = "gmpsvm_model_v2\n"
                           "num_classes 3\n"
                           "c 10\n" +
                           kernel_line +
                           "pool 2 4\n"
                           "svms 3\n"
                           "svm 0 1 0.125 -2.5 0.0625 2\n"
                           "0:1 1:-1\n"
                           "svm 0 2 -0.75 -1.25 0 1\n"
                           "0:0.5\n"
                           "svm 1 2 0.5 -3 0.25 1\n"
                           "1:-0.5\n"
                           "cascade 3\n"
                           "0.5 0.25 0.75\n"
                           "1 0.5 0.5\n"
                           "0.25 0.125 0.875\n"
                           "pool_rows 4 17\n"
                           "0:0.5 2:-1.5\n"
                           "1:2 3:0.33333333333333331\n";
  const std::string path = ::testing::TempDir() + "/gmpsvm_format_contract.txt";
  const auto write = [&path](const std::string& contents) {
    std::ofstream out(path);
    out << contents;
  };
  const auto read = [](const std::string& file) {
    std::ifstream in(file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };

  write(text);
  const MpSvmModel model = ValueOrDie(LoadModel(path));
  EXPECT_EQ(model.kernel.type, KernelType::kGaussian);
  EXPECT_EQ(model.kernel.gamma, 0.3);
  const std::string resaved = ::testing::TempDir() + "/gmpsvm_resaved.txt";
  GMP_CHECK_OK(SaveModel(model, resaved));
  EXPECT_EQ(read(resaved), text);
  std::remove(resaved.c_str());

  // Kernel lines as files named the other kernels of Section 2.1.
  for (const char* line : {"kernel linear 0.29999999999999999 0 3\n",
                           "kernel polynomial 0.5 1 2\n",
                           "kernel sigmoid 0.5 -1 3\n"}) {
    std::string other = text;
    other.replace(other.find(kernel_line), kernel_line.size(), line);
    write(other);
    const Result<MpSvmModel> result = LoadModel(path);
    ASSERT_FALSE(result.ok()) << line;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << line;
    const std::string name(SplitTokens(line, " ")[1]);
    EXPECT_NE(result.status().message().find(name), std::string::npos)
        << result.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(ModelIoTest, LoadMissingFileFails) {
  auto result = LoadModel("/nonexistent/path/model.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

}  // namespace
}  // namespace gmpsvm
