// The end-to-end continual-learning loop: apply deltas, serve, detect drift,
// warm-retrain, canary, hot-swap — and roll back on any gate failure while
// the fleet keeps answering. The determinism matrix here is the PR's
// acceptance criterion: same deltas + same chaos seed must produce
// byte-identical final models and equal counters at every devices x
// host-threads topology.

#include "online/retrain_daemon.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "../test_util.h"
#include "cluster/cluster.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"
#include "obs/metrics.h"
#include "online/delta.h"
#include "serve/model_registry.h"

namespace gmpsvm::online {
namespace {

namespace fs = std::filesystem;
using ::gmpsvm::testing::MakeMulticlassBlobs;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
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

Dataset SmallBase() {
  return ValueOrDie(MakeMulticlassBlobs(4, 22, 6, 2.5, 42));
}

MpSvmModel TrainInitial(const Dataset& data) {
  SimExecutor exec(ExecutorModel::TeslaP100());
  return ValueOrDie(GmpSvmTrainer(SmallOptions()).Train(data, &exec, nullptr));
}

// One drift delta relabeling 12 of the 22 class-0 rows to class 1: enough
// confidently-wrong traffic (~14% of requests at Brier ~1.8 each) to push
// the windowed Brier past the 0.15 threshold the tests configure.
void WriteDriftDelta(const Dataset& base, const std::string& dir) {
  DatasetDelta delta;
  delta.base_fingerprint = DatasetFingerprint(base);
  delta.num_classes = base.num_classes();
  const std::vector<int32_t>& rows = base.ClassRows(0);
  for (int i = 0; i < 12; ++i) {
    DeltaOp op;
    op.kind = DeltaOp::Kind::kRelabel;
    op.row = rows[static_cast<size_t>(i)];
    op.old_label = 0;
    op.new_label = 1;
    delta.ops.push_back(op);
  }
  GMP_CHECK_OK(SaveDelta(delta, dir + "/000_drift.delta"));
}

RetrainDaemonOptions BaseOptions(const std::string& delta_dir) {
  RetrainDaemonOptions options;
  options.delta_dir = delta_dir;
  options.drift.window = 128;
  options.drift.min_observations = 32;
  options.drift.brier_threshold = 0.15;
  // Retrains that absorb real drift legitimately move probabilities on the
  // relabeled rows; the candidate-vs-incumbent Brier gate is the guard.
  options.canary.tolerance = 1.0;
  options.retrain.train = SmallOptions();
  options.requests_per_round = 64;
  return options;
}

struct RunOutcome {
  std::string model_text;
  RetrainDaemonReport report;
};

RunOutcome RunDaemon(const Dataset& base, const std::string& delta_dir,
                     int devices, int host_threads,
                     std::optional<uint64_t> chaos_seed) {
  RetrainDaemonOptions options = BaseOptions(delta_dir);
  if (chaos_seed.has_value()) {
    options.fault = fault::FaultPlan::Chaos(*chaos_seed);
    options.retrain.fault = fault::FaultPlan::Chaos(*chaos_seed);
  }
  ExecutorModel device = ExecutorModel::TeslaP100();
  device.host_threads = host_threads;
  cluster::SimCluster cluster =
      cluster::SimCluster::Homogeneous(devices, device);
  ModelRegistry registry;
  RetrainDaemon daemon(options, &registry, &cluster);
  RunOutcome outcome;
  outcome.report = ValueOrDie(daemon.Run(base, TrainInitial(base)));
  outcome.model_text =
      SerializeModel(*ValueOrDie(registry.Get("online")).model);
  return outcome;
}

TEST(RetrainDaemonTest, CommitsDriftCorrectingSwapEndToEnd) {
  Dataset base = SmallBase();
  const std::string dir = FreshDir("daemon_commit");
  WriteDriftDelta(base, dir);

  RunOutcome run = RunDaemon(base, dir, 1, 1, std::nullopt);
  const RetrainDaemonReport& report = run.report;
  EXPECT_EQ(report.deltas_applied, 1);
  EXPECT_EQ(report.deltas_skipped, 0);
  EXPECT_EQ(report.drift_arms, 1);
  EXPECT_EQ(report.retrains, 1);
  EXPECT_EQ(report.swaps_committed, 1);
  EXPECT_EQ(report.rollbacks, 0);
  EXPECT_EQ(report.requests_served, 128);  // serve round + canary round
  EXPECT_EQ(report.requests_dropped, 0);
  EXPECT_GT(report.canary_sampled, 0);
  EXPECT_EQ(report.pairs_retrained, 5);  // all pairs touching class 0 or 1
  EXPECT_EQ(report.pairs_carried, 1);    // (2,3) carries
  EXPECT_EQ(report.final_model_version, 2);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_TRUE(report.verdicts[0].passed) << report.verdicts[0].reason;
}

TEST(RetrainDaemonTest, ByteIdenticalAcrossTopologyAndChaos) {
  Dataset base = SmallBase();
  const std::string dir = FreshDir("daemon_matrix");
  WriteDriftDelta(base, dir);

  std::string reference;
  RetrainDaemonReport ref_report;
  std::optional<int64_t> chaos_retries;
  for (int devices : {1, 2, 4}) {
    for (int host_threads : {1, 8}) {
      for (bool chaos : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << devices << " devices, " << host_threads
                     << " threads, chaos=" << chaos);
        RunOutcome run =
            RunDaemon(base, dir, devices, host_threads,
                      chaos ? std::optional<uint64_t>(11) : std::nullopt);
        if (reference.empty()) {
          reference = run.model_text;
          ref_report = run.report;
          ASSERT_EQ(ref_report.swaps_committed, 1);
        }
        // The committed model and every business counter are topology- and
        // chaos-invariant; only retry counters may move, and those are a
        // pure function of the chaos seed, so they match across topologies.
        EXPECT_EQ(run.model_text, reference);
        EXPECT_EQ(run.report.deltas_applied, ref_report.deltas_applied);
        EXPECT_EQ(run.report.drift_arms, ref_report.drift_arms);
        EXPECT_EQ(run.report.swaps_committed, ref_report.swaps_committed);
        EXPECT_EQ(run.report.rollbacks, ref_report.rollbacks);
        EXPECT_EQ(run.report.requests_served, ref_report.requests_served);
        EXPECT_EQ(run.report.requests_dropped, 0);
        EXPECT_EQ(run.report.canary_sampled, ref_report.canary_sampled);
        EXPECT_EQ(run.report.pairs_retrained, ref_report.pairs_retrained);
        EXPECT_EQ(run.report.pairs_carried, ref_report.pairs_carried);
        EXPECT_EQ(run.report.final_model_version,
                  ref_report.final_model_version);
        const int64_t retries = run.report.delta_parse_retries +
                                run.report.canary_retries +
                                run.report.swap_retries +
                                run.report.pair_retries;
        if (!chaos) {
          EXPECT_EQ(retries, 0);
        } else {
          if (!chaos_retries.has_value()) chaos_retries = retries;
          EXPECT_EQ(retries, *chaos_retries);
        }
      }
    }
  }
}

TEST(RetrainDaemonTest, CanaryRejectionRollsBackWithZeroDroppedRequests) {
  Dataset base = SmallBase();
  const std::string dir = FreshDir("daemon_canary_rollback");
  WriteDriftDelta(base, dir);

  RetrainDaemonOptions options = BaseOptions(dir);
  options.canary.tolerance = 0.0;  // any probability movement fails the gate
  cluster::SimCluster cluster =
      cluster::SimCluster::Homogeneous(1, ExecutorModel::TeslaP100());
  ModelRegistry registry;
  RetrainDaemon daemon(options, &registry, &cluster);
  MpSvmModel initial = TrainInitial(base);
  const std::string initial_text = SerializeModel(initial);
  RetrainDaemonReport report =
      ValueOrDie(daemon.Run(base, std::move(initial)));

  EXPECT_EQ(report.retrains, 1);
  EXPECT_EQ(report.swaps_committed, 0);
  EXPECT_EQ(report.rollbacks, 1);
  EXPECT_EQ(report.requests_served, 128);
  EXPECT_EQ(report.requests_dropped, 0);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_FALSE(report.verdicts[0].passed);

  // Rollback is "never commit": version 1 is still serving, byte for byte.
  ModelHandle handle = ValueOrDie(registry.Get("online"));
  EXPECT_EQ(handle.version, 1);
  EXPECT_EQ(report.final_model_version, 1);
  EXPECT_EQ(SerializeModel(*handle.model), initial_text);
}

TEST(RetrainDaemonTest, ValidatorRejectionRollsBackWithZeroDroppedRequests) {
  Dataset base = SmallBase();
  const std::string dir = FreshDir("daemon_validator_rollback");
  WriteDriftDelta(base, dir);

  RetrainDaemonOptions options = BaseOptions(dir);
  cluster::SimCluster cluster =
      cluster::SimCluster::Homogeneous(1, ExecutorModel::TeslaP100());
  ModelRegistry registry;
  // Admit the initial registration, reject every candidate after it.
  int validator_calls = 0;
  registry.SetValidator([&validator_calls](const MpSvmModel&) {
    return ++validator_calls == 1
               ? Status::OK()
               : Status::InvalidArgument("policy: frozen for audit");
  });
  RetrainDaemon daemon(options, &registry, &cluster);
  RetrainDaemonReport report =
      ValueOrDie(daemon.Run(base, TrainInitial(base)));

  EXPECT_GE(validator_calls, 2);
  EXPECT_EQ(report.swaps_committed, 0);
  EXPECT_EQ(report.rollbacks, 1);
  EXPECT_EQ(report.requests_dropped, 0);
  EXPECT_EQ(ValueOrDie(registry.Get("online")).version, 1);
}

TEST(RetrainDaemonTest, UnreadableDeltaIsSkippedAndServingContinues) {
  Dataset base = SmallBase();
  const std::string dir = FreshDir("daemon_delta_fault");
  WriteDriftDelta(base, dir);

  RetrainDaemonOptions options = BaseOptions(dir);
  options.fault = fault::FaultPlan{};
  options.fault->delta_parse_fail_prob = 1.0;
  options.fault->max_consecutive_per_site = 0;  // never force a success
  options.retry.max_attempts = 3;
  cluster::SimCluster cluster =
      cluster::SimCluster::Homogeneous(1, ExecutorModel::TeslaP100());
  ModelRegistry registry;
  RetrainDaemon daemon(options, &registry, &cluster);
  RetrainDaemonReport report =
      ValueOrDie(daemon.Run(base, TrainInitial(base)));

  EXPECT_EQ(report.deltas_applied, 0);
  EXPECT_EQ(report.deltas_skipped, 1);
  EXPECT_EQ(report.delta_parse_retries, 2);  // attempts 1..max, minus the last
  // No drift without the delta: the round still serves, nothing swaps.
  EXPECT_EQ(report.requests_served, 64);
  EXPECT_EQ(report.requests_dropped, 0);
  EXPECT_EQ(report.retrains, 0);
  EXPECT_EQ(ValueOrDie(registry.Get("online")).version, 1);
}

TEST(RetrainDaemonTest, PublishesDriftAndOnlineSeries) {
  Dataset base = SmallBase();
  const std::string dir = FreshDir("daemon_metrics");
  WriteDriftDelta(base, dir);

  obs::MetricsRegistry metrics;
  RetrainDaemonOptions options = BaseOptions(dir);
  options.metrics = &metrics;
  options.drift.metrics = &metrics;
  cluster::SimCluster cluster =
      cluster::SimCluster::Homogeneous(1, ExecutorModel::TeslaP100());
  ModelRegistry registry;
  RetrainDaemon daemon(options, &registry, &cluster);
  RetrainDaemonReport report =
      ValueOrDie(daemon.Run(base, TrainInitial(base)));
  ASSERT_EQ(report.swaps_committed, 1);

  const std::string text = metrics.ToPrometheusText();
  for (const char* series :
       {"gmpsvm_drift_brier", "gmpsvm_drift_armed_total",
        "gmpsvm_online_deltas_applied_total", "gmpsvm_online_swaps_total",
        "gmpsvm_online_requests_total", "gmpsvm_online_retrains_total",
        "gmpsvm_online_canary_sampled_total"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
}

TEST(RetrainDaemonOptionsTest, ValidateRejectsBadFields) {
  RetrainDaemonOptions options;
  EXPECT_FALSE(options.Validate().ok()) << "empty delta_dir must fail";
  options.delta_dir = "/tmp/x";
  options.model_name = "";
  EXPECT_FALSE(options.Validate().ok());
  options = RetrainDaemonOptions{};
  options.delta_dir = "/tmp/x";
  options.requests_per_round = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(RetrainDaemonTest, MissingDeltaDirIsIoError) {
  Dataset base = SmallBase();
  RetrainDaemonOptions options = BaseOptions("/nonexistent/deltas");
  cluster::SimCluster cluster =
      cluster::SimCluster::Homogeneous(1, ExecutorModel::TeslaP100());
  ModelRegistry registry;
  RetrainDaemon daemon(options, &registry, &cluster);
  auto result = daemon.Run(base, TrainInitial(base));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

}  // namespace
}  // namespace gmpsvm::online
