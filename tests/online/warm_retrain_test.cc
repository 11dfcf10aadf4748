// Warm-start retraining: only pairs touching a delta's classes are re-solved;
// every untouched pair's checkpoint is carried byte for byte. The retrained
// model must be byte-identical at any device count and under chaos, because
// the daemon's end-to-end determinism claim rests on this layer.

#include "online/warm_retrain.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.h"
#include "cluster/cluster.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"
#include "online/delta.h"

namespace gmpsvm::online {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

MpTrainOptions SmallOptions() {
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 32;
  options.batch.working_set.q = 16;
  options.max_concurrent_svms = 4;
  options.shared_cache_bytes = 64ull << 20;
  return options;
}

Dataset SmallBase() {
  return ValueOrDie(MakeMulticlassBlobs(4, 22, 6, 2.5, 42));
}

MpSvmModel TrainCold(const Dataset& data) {
  SimExecutor exec(ExecutorModel::TeslaP100());
  return ValueOrDie(GmpSvmTrainer(SmallOptions()).Train(data, &exec, nullptr));
}

// A drift delta relabeling the first `n` class-0 rows to class 1.
DatasetDelta DriftDelta(const Dataset& base, int n) {
  DatasetDelta delta;
  delta.base_fingerprint = DatasetFingerprint(base);
  delta.num_classes = base.num_classes();
  const std::vector<int32_t>& rows = base.ClassRows(0);
  for (int i = 0; i < n && i < static_cast<int>(rows.size()); ++i) {
    DeltaOp op;
    op.kind = DeltaOp::Kind::kRelabel;
    op.row = rows[static_cast<size_t>(i)];
    op.old_label = 0;
    op.new_label = 1;
    delta.ops.push_back(op);
  }
  return delta;
}

TEST(CheckpointsFromModelTest, ReconstructsEveryPairInClassPairOrder) {
  Dataset data = SmallBase();
  MpSvmModel model = TrainCold(data);
  const auto pairs = data.ClassPairs();
  const std::vector<PairCheckpoint> checkpoints = CheckpointsFromModel(model);
  ASSERT_EQ(checkpoints.size(), pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ(checkpoints[p].class_s, pairs[p].first);
    EXPECT_EQ(checkpoints[p].class_t, pairs[p].second);
    EXPECT_EQ(checkpoints[p].sv_rows.size(), checkpoints[p].sv_coef.size());
    EXPECT_EQ(checkpoints[p].degraded, checkpoints[p].sv_rows.empty());
    EXPECT_FALSE(checkpoints[p].degraded)
        << "a separated-blobs pair trained no support vectors";
  }
}

TEST(AffectedPairIndicesTest, CoversTouchedClassesAndDegradedPairs) {
  Dataset data = SmallBase();  // 4 classes -> pairs 01 02 03 12 13 23
  std::vector<PairCheckpoint> previous(6);
  const auto pairs = data.ClassPairs();
  for (size_t p = 0; p < pairs.size(); ++p) {
    previous[p].class_s = pairs[p].first;
    previous[p].class_t = pairs[p].second;
  }

  EXPECT_EQ(AffectedPairIndices(data, {0}, previous),
            (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(AffectedPairIndices(data, {0, 1}, previous),
            (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(AffectedPairIndices(data, {}, previous), (std::vector<size_t>{}));

  // A degraded previous pair must be retrained even when untouched.
  previous[5].degraded = true;
  EXPECT_EQ(AffectedPairIndices(data, {0}, previous),
            (std::vector<size_t>{0, 1, 2, 5}));
}

TEST(WarmRetrainTest, RetrainsAffectedPairsAndCarriesRestByteIdentically) {
  Dataset base = SmallBase();
  MpSvmModel initial = TrainCold(base);
  const std::vector<PairCheckpoint> previous = CheckpointsFromModel(initial);

  const DatasetDelta delta = DriftDelta(base, 8);
  Dataset drifted = ValueOrDie(ApplyDelta(base, delta));
  const std::vector<int> affected = AffectedClasses(delta);
  ASSERT_EQ(affected, (std::vector<int>{0, 1}));

  cluster::SimCluster cluster =
      cluster::SimCluster::Homogeneous(1, ExecutorModel::TeslaP100());
  WarmRetrainOptions options;
  options.train = SmallOptions();
  WarmRetrainReport report;
  MpSvmModel warm = ValueOrDie(
      WarmRetrain(drifted, previous, affected, options, &cluster, &report));

  // 5 of the 6 pairs touch class 0 or 1; only (2,3) carries.
  EXPECT_EQ(report.pairs_retrained, 5);
  EXPECT_EQ(report.pairs_carried, 1);
  EXPECT_GT(report.warm_seeded_rows, 0);
  EXPECT_GT(report.makespan_sim_seconds, 0.0);
  ASSERT_EQ(report.retrained.size(), 5u);

  // The carried pair (2,3) is slot 5 in ClassPairs order: its checkpoint in
  // the new model must serialize byte-identically to the pre-delta one.
  const std::vector<PairCheckpoint> after = CheckpointsFromModel(warm);
  ASSERT_EQ(after.size(), previous.size());
  EXPECT_EQ(SerializePairCheckpoint(after[5]),
            SerializePairCheckpoint(previous[5]));

  // The retrained pairs absorbed the drift: the warm model differs from the
  // stale one but still assembles and serializes cleanly.
  EXPECT_NE(SerializeModel(warm), SerializeModel(initial));
}

TEST(WarmRetrainTest, ByteIdenticalAcrossDeviceCountsAndChaos) {
  Dataset base = SmallBase();
  MpSvmModel initial = TrainCold(base);
  const std::vector<PairCheckpoint> previous = CheckpointsFromModel(initial);
  const DatasetDelta delta = DriftDelta(base, 8);
  Dataset drifted = ValueOrDie(ApplyDelta(base, delta));
  const std::vector<int> affected = AffectedClasses(delta);

  std::string reference;
  for (int devices : {1, 2, 4}) {
    cluster::SimCluster cluster =
        cluster::SimCluster::Homogeneous(devices, ExecutorModel::TeslaP100());
    WarmRetrainOptions options;
    options.train = SmallOptions();
    MpSvmModel warm = ValueOrDie(
        WarmRetrain(drifted, previous, affected, options, &cluster, nullptr));
    if (reference.empty()) {
      reference = SerializeModel(warm);
    } else {
      EXPECT_EQ(SerializeModel(warm), reference) << devices << " devices";
    }
  }

  // Chaos changes retries and sim-time, never bytes — per-pair injectors are
  // seeded from (plan seed, pair index) only, so this holds at any topology.
  for (int devices : {1, 3}) {
    cluster::SimCluster cluster =
        cluster::SimCluster::Homogeneous(devices, ExecutorModel::TeslaP100());
    WarmRetrainOptions options;
    options.train = SmallOptions();
    options.fault = fault::FaultPlan::Chaos(17);
    WarmRetrainReport report;
    MpSvmModel warm = ValueOrDie(
        WarmRetrain(drifted, previous, affected, options, &cluster, &report));
    EXPECT_EQ(SerializeModel(warm), reference)
        << "chaos on " << devices << " devices";
    EXPECT_EQ(report.pairs_degraded, 0);
  }
}

TEST(WarmRetrainTest, RejectsInvalidOptionsAndMismatchedCheckpoints) {
  Dataset base = SmallBase();
  MpSvmModel initial = TrainCold(base);
  const std::vector<PairCheckpoint> previous = CheckpointsFromModel(initial);
  cluster::SimCluster cluster =
      cluster::SimCluster::Homogeneous(1, ExecutorModel::TeslaP100());

  WarmRetrainOptions checkpointing;
  checkpointing.train = SmallOptions();
  checkpointing.train.checkpoint.dir = "/tmp/nope";
  auto r1 = WarmRetrain(base, previous, {0}, checkpointing, &cluster, nullptr);
  ASSERT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsInvalidArgument());

  WarmRetrainOptions resuming;
  resuming.train = SmallOptions();
  resuming.train.checkpoint.resume = true;
  EXPECT_FALSE(WarmRetrain(base, previous, {0}, resuming, &cluster, nullptr).ok());

  WarmRetrainOptions interrupting;
  interrupting.train = SmallOptions();
  interrupting.fault = fault::FaultPlan{};
  interrupting.fault->interrupt_after_pairs = 1;
  EXPECT_FALSE(
      WarmRetrain(base, previous, {0}, interrupting, &cluster, nullptr).ok());

  WarmRetrainOptions options;
  options.train = SmallOptions();

  std::vector<PairCheckpoint> truncated(previous.begin(), previous.end() - 1);
  auto r2 = WarmRetrain(base, truncated, {0}, options, &cluster, nullptr);
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsInvalidArgument());

  std::vector<PairCheckpoint> shuffled = previous;
  std::swap(shuffled[0], shuffled[1]);  // class labels no longer match
  auto r3 = WarmRetrain(base, shuffled, {0}, options, &cluster, nullptr);
  ASSERT_FALSE(r3.ok());
  EXPECT_TRUE(r3.status().IsInvalidArgument());

  auto r4 = WarmRetrain(base, previous, {0}, options, nullptr, nullptr);
  ASSERT_FALSE(r4.ok());
  EXPECT_TRUE(r4.status().IsInvalidArgument());

  // BatchSmoSolver takes a warm seed on one shard only, so a schedule that
  // would shard a retrained pair is rejected up front rather than dropping
  // the pair.
  cluster::SimCluster two =
      cluster::SimCluster::Homogeneous(2, ExecutorModel::TeslaP100());
  WarmRetrainOptions sharding;
  sharding.train = SmallOptions();
  sharding.schedule.max_shards_per_pair = 2;
  sharding.schedule.shard_oversize_factor = 0.0;
  sharding.schedule.topology = &two.topology();
  auto r5 = WarmRetrain(base, previous, {0}, sharding, &two, nullptr);
  ASSERT_FALSE(r5.ok());
  EXPECT_TRUE(r5.status().IsInvalidArgument()) << r5.status().ToString();
  EXPECT_NE(r5.status().message().find("max_shards_per_pair"),
            std::string::npos)
      << r5.status().ToString();
}

}  // namespace
}  // namespace gmpsvm::online
