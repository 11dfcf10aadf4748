// Checkpoint/resume: exact round-trips through the text format, hostile and
// truncated input never crashing (kInvalidArgument only), and the end-to-end
// interrupt -> resume path producing a byte-identical model.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"
#include "fault/fault_injector.h"

namespace gmpsvm {
namespace {

namespace fs = std::filesystem;
using ::gmpsvm::testing::MakeMulticlassBlobs;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

MpTrainOptions SmallOptions() {
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 32;
  options.batch.working_set.q = 16;
  options.max_concurrent_svms = 4;
  options.shared_cache_bytes = 64ull << 20;
  return options;
}

PairCheckpoint SamplePair() {
  PairCheckpoint pair;
  pair.class_s = 1;
  pair.class_t = 3;
  pair.bias = -1.0 / 3.0;
  pair.sigmoid.a = -std::sqrt(2.0);
  pair.sigmoid.b = 1.25e-7;
  pair.sv_rows = {4, 0, 17};
  pair.sv_coef = {0.1 + 0.2, -2.0 / 7.0, 1e-17};
  return pair;
}

TEST(PairCheckpointTest, RoundTripsExactly) {
  const PairCheckpoint pair = SamplePair();
  const PairCheckpoint parsed =
      ValueOrDie(ParsePairCheckpoint(SerializePairCheckpoint(pair)));
  EXPECT_EQ(parsed.class_s, pair.class_s);
  EXPECT_EQ(parsed.class_t, pair.class_t);
  EXPECT_EQ(parsed.bias, pair.bias);  // bit-exact through %.17g text
  EXPECT_EQ(parsed.sigmoid.a, pair.sigmoid.a);
  EXPECT_EQ(parsed.sigmoid.b, pair.sigmoid.b);
  EXPECT_EQ(parsed.degraded, pair.degraded);
  EXPECT_EQ(parsed.sv_rows, pair.sv_rows);
  EXPECT_EQ(parsed.sv_coef, pair.sv_coef);
}

TEST(PairCheckpointTest, DegradedFlagAndEmptySvsRoundTrip) {
  PairCheckpoint pair;
  pair.class_s = 0;
  pair.class_t = 2;
  pair.degraded = true;
  const PairCheckpoint parsed =
      ValueOrDie(ParsePairCheckpoint(SerializePairCheckpoint(pair)));
  EXPECT_TRUE(parsed.degraded);
  EXPECT_TRUE(parsed.sv_rows.empty());
  EXPECT_TRUE(parsed.sv_coef.empty());
}

TEST(PairCheckpointTest, EveryTruncationFailsCleanlyOrParses) {
  const std::string full = SerializePairCheckpoint(SamplePair());
  int failures = 0;
  for (size_t len = 0; len < full.size(); ++len) {
    auto result = ParsePairCheckpoint(full.substr(0, len));
    if (!result.ok()) {
      // Never a crash, never any other code: corrupt checkpoints are data
      // errors.
      EXPECT_TRUE(result.status().IsInvalidArgument())
          << "len=" << len << ": " << result.status().ToString();
      ++failures;
    }
  }
  EXPECT_GT(failures, 0);  // at the very least, short prefixes must fail
  GMP_CHECK_OK(ParsePairCheckpoint(full).status());
}

TEST(PairCheckpointTest, HostileInputsAreInvalidArgument) {
  const std::vector<std::string> hostile = {
      "",
      "not_a_checkpoint\n",
      "gmpsvm_pair_checkpoint_v1\n",
      "gmpsvm_pair_checkpoint_v1\npair 1 1\nbias 0\nsigmoid 0 0\ndegraded "
      "0\nsvs 0\n",  // s == t
      "gmpsvm_pair_checkpoint_v1\npair -1 2\nbias 0\nsigmoid 0 0\ndegraded "
      "0\nsvs 0\n",  // negative class
      "gmpsvm_pair_checkpoint_v1\npair 0 1\nbias 0\nsigmoid 0 0\ndegraded "
      "7\nsvs 0\n",  // bad flag
      "gmpsvm_pair_checkpoint_v1\npair 0 1\nbias 0\nsigmoid 0 0\ndegraded "
      "0\nsvs 99999999999\n",  // hostile count, no data
      "gmpsvm_pair_checkpoint_v1\npair 0 1\nbias 0\nsigmoid 0 0\ndegraded "
      "0\nsvs 1\n5;0.5\n",  // bad separator
      "gmpsvm_pair_checkpoint_v1\npair 0 1\nbias 0\nsigmoid 0 0\ndegraded "
      "0\nsvs 1\n-5:0.5\n",  // negative row
      "gmpsvm_pair_checkpoint_v1\npair 0 1\nbias x\nsigmoid 0 0\ndegraded "
      "0\nsvs 0\n",  // non-numeric
  };
  for (const auto& text : hostile) {
    auto result = ParsePairCheckpoint(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << text << " -> " << result.status().ToString();
  }
}

TEST(CheckpointManifestTest, RoundTripsExactly) {
  CheckpointManifest manifest;
  manifest.fingerprint = 0xDEADBEEFCAFEF00Dull;
  manifest.num_classes = 4;
  manifest.completed = {{0, 1}, {2, 3}, {0, 3}};
  const CheckpointManifest parsed = ValueOrDie(
      ParseCheckpointManifest(SerializeCheckpointManifest(manifest)));
  EXPECT_EQ(parsed.fingerprint, manifest.fingerprint);
  EXPECT_EQ(parsed.num_classes, manifest.num_classes);
  EXPECT_EQ(parsed.completed, manifest.completed);
}

TEST(CheckpointManifestTest, EveryTruncationFailsCleanlyOrParses) {
  CheckpointManifest manifest;
  manifest.fingerprint = 1234567890123456789ull;
  manifest.num_classes = 3;
  manifest.completed = {{0, 1}, {0, 2}, {1, 2}};
  const std::string full = SerializeCheckpointManifest(manifest);
  for (size_t len = 0; len < full.size(); ++len) {
    auto result = ParseCheckpointManifest(full.substr(0, len));
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsInvalidArgument())
          << "len=" << len << ": " << result.status().ToString();
    }
  }
}

TEST(CheckpointManifestTest, HostileInputsAreInvalidArgument) {
  const std::vector<std::string> hostile = {
      "",
      "gmpsvm_checkpoint_v1\n",
      "gmpsvm_checkpoint_v1\nfingerprint 1\nnum_classes 1\ncompleted 0\n",
      "gmpsvm_checkpoint_v1\nfingerprint 1\nnum_classes 3\ncompleted "
      "99999999999\n",
      "gmpsvm_checkpoint_v1\nfingerprint 1\nnum_classes 3\ncompleted 1\n0 "
      "5\n",  // pair out of range
      "gmpsvm_checkpoint_v1\nfingerprint 1\nnum_classes 3\ncompleted 1\n2 "
      "2\n",  // s == t
      "gmpsvm_model_v1\nfingerprint 1\nnum_classes 3\ncompleted 0\n",
      "gmpsvm_checkpoint_v1\nfingerprint 1\nnum_classes 3\ncompleted 2\n"
      "0 1\n0 1\n",  // duplicate completed pair
      "gmpsvm_checkpoint_v1\nfingerprint 1\nnum_classes 3\ncompleted 3\n"
      "0 1\n0 2\n0 1\n",  // duplicate after a distinct pair
      "gmpsvm_checkpoint_v1\nfingerprint xyz\nnum_classes 3\ncompleted 0\n",
      "gmpsvm_checkpoint_v1\nchecksum 1\nnum_classes 3\ncompleted 0\n",
  };
  for (const auto& text : hostile) {
    auto result = ParseCheckpointManifest(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << text << " -> " << result.status().ToString();
  }
}

TEST(CheckpointResumeTest, InterruptThenResumeIsByteIdentical) {
  auto data = ValueOrDie(MakeMulticlassBlobs(4, 18, 5, 2.5, 42));
  MpTrainOptions options = SmallOptions();

  SimExecutor clean_gpu(ExecutorModel::TeslaP100());
  auto clean =
      ValueOrDie(GmpSvmTrainer(options).Train(data, &clean_gpu, nullptr));

  const std::string dir = FreshDir("ckpt_interrupt");
  options.checkpoint.dir = dir;

  // Simulated kill after 2 completed pairs.
  fault::FaultPlan plan;
  plan.interrupt_after_pairs = 2;
  fault::FaultInjector injector(plan);
  SimExecutor gpu(ExecutorModel::TeslaP100());
  gpu.SetFaultInjector(&injector);
  auto interrupted = GmpSvmTrainer(options).Train(data, &gpu, nullptr);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_TRUE(interrupted.status().IsUnavailable())
      << interrupted.status().ToString();

  // The manifest survived the kill and lists the completed pairs.
  auto manifest = ValueOrDie(LoadCheckpointManifest(
      (fs::path(dir) / kCheckpointManifestFileName).string()));
  ASSERT_GE(manifest.completed.size(), 2u);
  for (const auto& [s, t] : manifest.completed) {
    EXPECT_TRUE(fs::exists(fs::path(dir) / PairCheckpointFileName(s, t)));
  }

  // Resume on a fresh executor: only the remainder is trained, and the model
  // comes out byte-identical to the uninterrupted run.
  options.checkpoint.resume = true;
  SimExecutor resume_gpu(ExecutorModel::TeslaP100());
  MpTrainReport report;
  auto resumed =
      ValueOrDie(GmpSvmTrainer(options).Train(data, &resume_gpu, &report));
  EXPECT_GE(report.pairs_resumed, 2);
  EXPECT_EQ(SerializeModel(resumed), SerializeModel(clean));
}

// A chaos run at 1 host thread is interrupted after 2 pairs; the resume runs
// without an injector at 4 host threads and with the shared block cache off.
// The resumed model must still equal the uninterrupted one byte for byte.
template <typename Trainer>
void ExpectFourThreadResumeIsByteIdentical(const std::string& dir_name) {
  auto data = ValueOrDie(MakeMulticlassBlobs(4, 18, 5, 2.5, 42));
  MpTrainOptions options = SmallOptions();

  SimExecutor clean_gpu(ExecutorModel::TeslaP100());
  const std::string clean = SerializeModel(
      ValueOrDie(Trainer(options).Train(data, &clean_gpu, nullptr)));

  options.checkpoint.dir = FreshDir(dir_name);
  fault::FaultPlan plan = fault::FaultPlan::Chaos(5);
  plan.interrupt_after_pairs = 2;
  fault::FaultInjector injector(plan);
  SimExecutor gpu(ExecutorModel::TeslaP100());
  gpu.SetFaultInjector(&injector);
  auto interrupted = Trainer(options).Train(data, &gpu, nullptr);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_TRUE(interrupted.status().IsUnavailable())
      << interrupted.status().ToString();

  options.checkpoint.resume = true;
  options.share_kernel_blocks = false;
  ExecutorModel four_threads = ExecutorModel::TeslaP100();
  four_threads.host_threads = 4;
  SimExecutor resume_gpu(four_threads);
  MpTrainReport report;
  auto resumed =
      ValueOrDie(Trainer(options).Train(data, &resume_gpu, &report));
  EXPECT_GE(report.pairs_resumed, 2);
  EXPECT_EQ(SerializeModel(resumed), clean);
}

TEST(CheckpointResumeTest, GmpResumeAtFourHostThreadsIsByteIdentical) {
  ExpectFourThreadResumeIsByteIdentical<GmpSvmTrainer>("ckpt_threads4_gmp");
}

TEST(CheckpointResumeTest, SequentialResumeAtFourHostThreadsIsByteIdentical) {
  ExpectFourThreadResumeIsByteIdentical<SequentialMpTrainer>(
      "ckpt_threads4_sequential");
}

TEST(CheckpointResumeTest, ResumeRetrainsDegradedPairs) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 14, 4, 3.0, 9));
  MpTrainOptions options = SmallOptions();

  SimExecutor clean_gpu(ExecutorModel::TeslaP100());
  auto clean =
      ValueOrDie(GmpSvmTrainer(options).Train(data, &clean_gpu, nullptr));

  // First run: every pair degrades (all kernel-row batches fail), but the
  // checkpoint records that so a later healthy run can repair the model.
  const std::string dir = FreshDir("ckpt_degraded");
  options.checkpoint.dir = dir;
  options.pair_failure_policy = PairFailurePolicy::kSkipDegraded;
  fault::FaultPlan plan;
  plan.kernel_row_fail_prob = 1.0;
  plan.max_consecutive_per_site = 0;
  fault::FaultInjector injector(plan);
  SimExecutor gpu(ExecutorModel::TeslaP100());
  gpu.SetFaultInjector(&injector);
  MpTrainReport degraded_report;
  ValueOrDie(GmpSvmTrainer(options).Train(data, &gpu, &degraded_report));
  EXPECT_EQ(degraded_report.pairs_degraded, 3);

  // Healthy resume: degraded pairs are not trusted, they are retrained.
  options.checkpoint.resume = true;
  SimExecutor resume_gpu(ExecutorModel::TeslaP100());
  MpTrainReport report;
  auto repaired =
      ValueOrDie(GmpSvmTrainer(options).Train(data, &resume_gpu, &report));
  EXPECT_EQ(report.pairs_resumed, 0);  // nothing loadable, all degraded
  EXPECT_EQ(report.pairs_degraded, 0);
  EXPECT_EQ(SerializeModel(repaired), SerializeModel(clean));
}

TEST(CheckpointResumeTest, FingerprintMismatchIsRejected) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 14, 4, 3.0, 17));
  MpTrainOptions options = SmallOptions();
  const std::string dir = FreshDir("ckpt_fingerprint");
  options.checkpoint.dir = dir;
  SimExecutor gpu(ExecutorModel::TeslaP100());
  ValueOrDie(GmpSvmTrainer(options).Train(data, &gpu, nullptr));

  // Same checkpoints, different configuration: the resume must refuse.
  options.checkpoint.resume = true;
  options.kernel.gamma *= 2.0;
  SimExecutor gpu2(ExecutorModel::TeslaP100());
  auto result = GmpSvmTrainer(options).Train(data, &gpu2, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();

  // Different data, same options: also refused.
  options.kernel.gamma /= 2.0;
  auto other = ValueOrDie(MakeMulticlassBlobs(3, 14, 4, 3.0, 18));
  SimExecutor gpu3(ExecutorModel::TeslaP100());
  auto result2 = GmpSvmTrainer(options).Train(other, &gpu3, nullptr);
  ASSERT_FALSE(result2.ok());
  EXPECT_TRUE(result2.status().IsInvalidArgument())
      << result2.status().ToString();
}

TEST(CheckpointResumeTest, MissingManifestStartsFresh) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 14, 4, 3.0, 23));
  MpTrainOptions options = SmallOptions();
  options.checkpoint.dir = FreshDir("ckpt_fresh");
  options.checkpoint.resume = true;  // nothing there yet
  SimExecutor gpu(ExecutorModel::TeslaP100());
  MpTrainReport report;
  ValueOrDie(GmpSvmTrainer(options).Train(data, &gpu, &report));
  EXPECT_EQ(report.pairs_resumed, 0);
}

TEST(CheckpointResumeTest, ResumeWithoutDirIsRejected) {
  MpTrainOptions options = SmallOptions();
  options.checkpoint.resume = true;  // dir empty
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(CheckpointFileTest, LoadFromMissingPathIsIoError) {
  EXPECT_TRUE(LoadPairCheckpoint("/nonexistent/p.ckpt").status().IsIoError());
  EXPECT_TRUE(
      LoadCheckpointManifest("/nonexistent/m.ckpt").status().IsIoError());
}

}  // namespace
}  // namespace gmpsvm
