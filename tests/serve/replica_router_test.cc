// ReplicaRouter: least-loaded dispatch across per-device replicas, spill on
// full queues, bit-identical answers whichever replica serves, router-level
// metrics, and clean shutdown.

#include "serve/replica_router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "../test_util.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "obs/metrics.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

MpSvmModel TrainSmallModel(uint64_t seed, int k = 3) {
  auto data = ValueOrDie(MakeMulticlassBlobs(k, 20, 6, 2.5, seed));
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 16;
  options.batch.working_set.q = 8;
  SimExecutor exec(ExecutorModel::TeslaP100());
  return ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));
}

struct RouterFixture {
  Dataset test;
  ModelRegistry registry;
  std::unique_ptr<ReplicaRouter> router;

  explicit RouterFixture(RouterOptions options, uint64_t seed = 42) {
    test = ValueOrDie(MakeMulticlassBlobs(3, 25, 6, 2.5, seed + 1));
    ValueOrDie(registry.Register(options.serve.model_name, TrainSmallModel(seed)));
    router = std::make_unique<ReplicaRouter>(&registry, options);
    GMP_CHECK_OK(router->Start());
  }

  std::future<Result<PredictResponse>> SubmitRow(int64_t row) {
    const CsrMatrix& m = test.features();
    return ValueOrDie(router->Submit(m.RowIndices(row), m.RowValues(row)));
  }
};

RouterOptions TwoReplicas() {
  RouterOptions options;
  options.serve.num_workers = 1;
  options.devices.assign(2, options.serve.executor_model);
  return options;
}

TEST(ReplicaRouterTest, EmptyDeviceListMeansOneReplica) {
  RouterOptions options;
  RouterFixture fx(options);
  EXPECT_EQ(fx.router->num_replicas(), 1);
  PredictResponse response = ValueOrDie(fx.SubmitRow(0).get());
  EXPECT_EQ(response.probabilities.size(), 3u);
}

TEST(ReplicaRouterTest, AnswersBitIdenticalToDirectPredictOnAnyReplica) {
  RouterOptions options = TwoReplicas();
  RouterFixture fx(options);

  const int64_t n = fx.test.size();
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < n; ++i) futures.push_back(fx.SubmitRow(i));

  auto handle = ValueOrDie(fx.registry.Get(options.serve.model_name));
  SimExecutor exec(ExecutorModel::TeslaP100());
  const PredictResult reference = ValueOrDie(
      MpSvmPredictor(handle.model.get())
          .Predict(fx.test.features(), &exec, options.serve.predict));

  for (int64_t i = 0; i < n; ++i) {
    PredictResponse response = ValueOrDie(futures[static_cast<size_t>(i)].get());
    EXPECT_EQ(response.label, reference.labels[static_cast<size_t>(i)]);
    ASSERT_EQ(response.probabilities.size(), 3u);
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(response.probabilities[static_cast<size_t>(c)],
                reference.Probability(i, c))
          << "row " << i << " class " << c;
    }
  }
  // Both replicas took part: least-loaded dispatch over a growing backlog
  // cannot starve one of them for 75 single-row requests.
  EXPECT_GT(fx.router->routed(0), 0);
  EXPECT_GT(fx.router->routed(1), 0);
  EXPECT_EQ(fx.router->routed(0) + fx.router->routed(1), n);
}

TEST(ReplicaRouterTest, LeastLoadedAlternatesOverAPausedBacklog) {
  RouterOptions options = TwoReplicas();
  RouterFixture fx(options);
  // With consumption gated, queue depths grow monotonically, so the
  // least-loaded snapshot alternates deterministically: 4 requests each.
  fx.router->replica(0)->Pause();
  fx.router->replica(1)->Pause();
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < 8; ++i) futures.push_back(fx.SubmitRow(i));
  EXPECT_EQ(fx.router->routed(0), 4);
  EXPECT_EQ(fx.router->routed(1), 4);
  fx.router->replica(0)->Resume();
  fx.router->replica(1)->Resume();
  for (auto& f : futures) GMP_CHECK_OK(f.get().status());
}

TEST(ReplicaRouterTest, SpillsAndRejectsOnlyWhenEveryReplicaIsFull) {
  RouterOptions options = TwoReplicas();
  options.serve.queue_capacity = 2;
  RouterFixture fx(options);
  fx.router->replica(0)->Pause();
  fx.router->replica(1)->Pause();

  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < 4; ++i) futures.push_back(fx.SubmitRow(i));

  // Both queues are at capacity: the router tries every replica, then
  // surfaces the full-queue rejection.
  const CsrMatrix& m = fx.test.features();
  auto rejected = fx.router->Submit(m.RowIndices(4), m.RowValues(4));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());

  fx.router->replica(0)->Resume();
  fx.router->replica(1)->Resume();
  for (auto& f : futures) GMP_CHECK_OK(f.get().status());
}

TEST(ReplicaRouterTest, PublishesRoutingMetricsPerDevice) {
  obs::MetricsRegistry metrics;
  RouterOptions options = TwoReplicas();
  options.metrics = &metrics;
  RouterFixture fx(options);

  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < 10; ++i) futures.push_back(fx.SubmitRow(i));
  for (auto& f : futures) GMP_CHECK_OK(f.get().status());

  double routed_total = 0.0;
  for (int r = 0; r < fx.router->num_replicas(); ++r) {
    routed_total +=
        metrics
            .GetCounter(
                "gmpsvm_router_requests_routed_total",
                "Requests dispatched to a replica by the least-loaded router.",
                {{"device", std::to_string(r)}})
            ->Value();
  }
  EXPECT_EQ(routed_total, 10.0);
}

TEST(ReplicaRouterTest, PredictFlattensSubmitAndWait) {
  RouterOptions options = TwoReplicas();
  RouterFixture fx(options);
  const CsrMatrix& m = fx.test.features();
  PredictResponse response =
      ValueOrDie(fx.router->Predict(m.RowIndices(0), m.RowValues(0)));
  EXPECT_EQ(response.probabilities.size(), 3u);
}

TEST(ReplicaRouterTest, ShutdownDrainsAndIsIdempotent) {
  RouterOptions options = TwoReplicas();
  RouterFixture fx(options);
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < 12; ++i) futures.push_back(fx.SubmitRow(i));
  GMP_CHECK_OK(fx.router->Shutdown());
  // Every accepted request still resolves to a terminal result.
  for (auto& f : futures) GMP_CHECK_OK(f.get().status());
  GMP_CHECK_OK(fx.router->Shutdown());
  // A post-shutdown submit is rejected, not queued forever.
  const CsrMatrix& m = fx.test.features();
  EXPECT_FALSE(fx.router->Submit(m.RowIndices(0), m.RowValues(0)).ok());
}

TEST(ReplicaRouterTest, AddedReplicaServesWithTheNextLaneBandAndDevice) {
  RouterOptions options = TwoReplicas();
  options.serve.lane_base = 100;
  RouterFixture fx(options);
  fx.router->Pause();
  // Added while paused: the replica inherits the gate.
  const ExecutorModel device = ExecutorModel::XeonCpu(2);
  GMP_CHECK_OK(fx.router->AddReplica(device));
  ASSERT_EQ(fx.router->num_replicas(), 3);
  EXPECT_EQ(fx.router->replica(2)->options().executor_model.name, device.name);
  EXPECT_EQ(fx.router->replica(2)->options().lane_base,
            100 + 2 * ServeOptions::kLanesPerWorker);
  EXPECT_EQ(fx.router->queue_capacity(), 3 * options.serve.queue_capacity);

  // Least-loaded over a frozen backlog spreads 9 requests 3/3/3, and none
  // drains while paused — an ungated replica would answer its first request
  // within one 500 us batching window.
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < 9; ++i) futures.push_back(fx.SubmitRow(i));
  EXPECT_EQ(fx.router->routed(2), 3);
  EXPECT_EQ(futures[2].wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  EXPECT_EQ(fx.router->queue_depth(), 9u);
  fx.router->Resume();
  for (auto& f : futures) GMP_CHECK_OK(f.get().status());
  EXPECT_EQ(fx.router->replica_registries().size(), 3u);
}

TEST(ReplicaRouterTest, RetireNewestDrainsItsRequestsAndRoutesToSurvivors) {
  RouterOptions options = TwoReplicas();
  RouterFixture fx(options);
  GMP_CHECK_OK(fx.router->AddReplica(options.serve.executor_model));
  fx.router->Pause();
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < 9; ++i) futures.push_back(fx.SubmitRow(i));
  ASSERT_EQ(fx.router->routed(2), 3);

  // The retiree answers all 3 requests it accepted, paused or not.
  GMP_CHECK_OK(fx.router->RetireNewest());
  EXPECT_EQ(fx.router->num_replicas(), 2);
  for (size_t i : {2u, 5u, 8u}) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    GMP_CHECK_OK(futures[i].get().status());
  }
  // Its registry outlives it.
  const std::vector<obs::MetricsRegistry*> registries =
      fx.router->replica_registries();
  ASSERT_EQ(registries.size(), 3u);
  EXPECT_EQ(registries[2]
                ->GetCounter("gmpsvm_serve_admitted_total",
                             "Requests accepted at admission.")
                ->Value(),
            3.0);

  // New submissions reach only the survivors.
  for (int64_t i = 9; i < 13; ++i) futures.push_back(fx.SubmitRow(i));
  EXPECT_EQ(fx.router->routed(0) + fx.router->routed(1), 10);
  fx.router->Resume();
  for (size_t i = 0; i < futures.size(); ++i) {
    if (futures[i].valid()) GMP_CHECK_OK(futures[i].get().status());
  }

  GMP_CHECK_OK(fx.router->RetireNewest());
  EXPECT_TRUE(fx.router->RetireNewest().IsFailedPrecondition());
  EXPECT_EQ(fx.router->num_replicas(), 1);
}

TEST(ReplicaRouterTest, NamedSubmitRunsTheCallbackOncePerRequest) {
  RouterOptions options = TwoReplicas();
  options.serve.queue_capacity = 2;
  RouterFixture fx(options);
  const MpSvmModel other = TrainSmallModel(7);
  ValueOrDie(fx.registry.Register("other", MpSvmModel(other)));
  SimExecutor exec(ExecutorModel::TeslaP100());
  const PredictResult reference = ValueOrDie(
      MpSvmPredictor(&other).Predict(fx.test.features(), &exec,
                                     options.serve.predict));

  std::atomic<int> callbacks{0};
  std::atomic<int> ok_callbacks{0};
  auto on_complete = [&](const Result<PredictResponse>& response) {
    callbacks.fetch_add(1);
    if (response.ok()) ok_callbacks.fetch_add(1);
  };
  const CsrMatrix& m = fx.test.features();
  fx.router->Pause();
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < 4; ++i) {
    futures.push_back(ValueOrDie(fx.router->Submit(
        m.RowIndices(i), m.RowValues(i), Deadline::Infinite(), "other",
        on_complete)));
  }
  // Both queues full: the rejected request never runs its callback, even
  // though it was offered to every replica.
  EXPECT_TRUE(fx.router
                  ->Submit(m.RowIndices(4), m.RowValues(4),
                           Deadline::Infinite(), "other", on_complete)
                  .status()
                  .IsResourceExhausted());
  fx.router->Resume();
  for (int64_t i = 0; i < 4; ++i) {
    const PredictResponse response =
        ValueOrDie(futures[static_cast<size_t>(i)].get());
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(response.probabilities[static_cast<size_t>(c)],
                reference.Probability(i, c))
          << "row " << i << " class " << c;
    }
  }
  EXPECT_EQ(callbacks.load(), 4);
  EXPECT_EQ(ok_callbacks.load(), 4);
}

}  // namespace
}  // namespace gmpsvm
