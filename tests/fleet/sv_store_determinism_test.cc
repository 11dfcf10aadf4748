// Satellite determinism matrix for the shared SV store (ISSUE PR 6): a
// fleet's probabilities must be byte-identical to the offline predictor
// with sharing on or off, at cache capacity 0 / small / unbounded, on one
// or four replicas, with one or eight workers, on a clean fleet and under
// injected chaos. The store only changes WHERE a kernel value comes from,
// never WHAT it is.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "../test_util.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "fault/fault_injector.h"
#include "fleet/fleet_server.h"

namespace gmpsvm::fleet {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

MpSvmModel TrainSmallModel(uint64_t seed, double c = 1.0) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 15, 5, 2.5, seed));
  MpTrainOptions options;
  options.c = c;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 16;
  options.batch.working_set.q = 8;
  SimExecutor exec(ExecutorModel::TeslaP100());
  return ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));
}

struct Config {
  const char* label;
  bool share;
  int64_t capacity;
  int replicas;
  int workers;
  bool chaos;
};

TEST(SvStoreDeterminismTest, ProbabilitiesAreByteIdenticalAcrossTheMatrix) {
  // Two distinct models trained on overlapping data (so their SV pools
  // overlap) and three tenants: t0 and t2 share model A's content, t1 runs
  // model B.
  const MpSvmModel model_a = TrainSmallModel(7);
  const MpSvmModel model_b = TrainSmallModel(7, /*c=*/4.0);
  const MpSvmModel* tenant_models[] = {&model_a, &model_b, &model_a};
  const char* tenant_names[] = {"t0", "t1", "t2"};

  auto queries = ValueOrDie(MakeMulticlassBlobs(3, 8, 5, 2.5, 321));
  const CsrMatrix& rows = queries.features();

  // The ground truth: the offline predictor, no serving layer, no store.
  SimExecutor ref_exec(ExecutorModel::TeslaP100());
  const PredictResult ref_a = ValueOrDie(
      MpSvmPredictor(&model_a).Predict(rows, &ref_exec, PredictOptions{}));
  const PredictResult ref_b = ValueOrDie(
      MpSvmPredictor(&model_b).Predict(rows, &ref_exec, PredictOptions{}));
  const PredictResult* refs[] = {&ref_a, &ref_b, &ref_a};
  const int k = ref_a.num_classes;

  const Config configs[] = {
      {"share-off", false, 1 << 20, 1, 1, false},
      {"cap-0", true, 0, 1, 1, false},
      {"cap-small", true, 64, 1, 1, false},
      {"cap-unbounded", true, -1, 1, 1, false},
      {"replicas-4", true, 64, 4, 1, false},
      {"workers-8", true, -1, 1, 8, false},
      {"chaos-replicas-4-workers-8", true, 64, 4, 8, true},
      {"chaos-unbounded", true, -1, 1, 1, true},
  };

  for (const Config& config : configs) {
    SCOPED_TRACE(config.label);

    FleetOptions options;
    options.serve.num_workers = config.workers;
    options.initial_replicas = config.replicas;
    options.autoscale.min_replicas = config.replicas;
    options.autoscale.max_replicas = config.replicas;
    options.share_support_vectors = config.share;
    options.sv_cache_capacity = config.capacity;
    if (config.replicas > 1) {
      // Exercise the device-cycling path explicitly.
      options.devices = {ExecutorModel::TeslaP100(),
                         ExecutorModel::TeslaP100()};
    }
    fault::FaultInjector injector(fault::FaultPlan::Chaos(13));
    if (config.chaos) {
      options.serve.fault = &injector;
      options.serve.max_request_retries = 5;
    }

    FleetServer fleet(options);
    ASSERT_TRUE(fleet.Start().ok());
    for (int t = 0; t < 3; ++t) {
      TenantSpec spec;
      spec.name = tenant_names[t];
      ValueOrDie(fleet.AddTenant(spec, MpSvmModel(*tenant_models[t])));
    }
    ASSERT_EQ(fleet.num_replicas(), config.replicas);

    int failed = 0;
    int compared = 0;
    // Interleave tenants per row (t2 right after t0) so even a small cache
    // sees the cross-tenant replay while the query is still resident.
    for (int64_t i = 0; i < queries.size(); ++i) {
      for (int t : {0, 2, 1}) {
        auto response =
            fleet.Predict(tenant_names[t], rows.RowIndices(i),
                          rows.RowValues(i));
        if (!response.ok()) {
          // Only chaos may fail a request, and then only terminally after
          // the retry budget (never with a wrong answer).
          ASSERT_TRUE(config.chaos) << response.status().ToString();
          ++failed;
          continue;
        }
        ASSERT_EQ(response->probabilities.size(), static_cast<size_t>(k));
        EXPECT_EQ(std::memcmp(response->probabilities.data(),
                              refs[t]->probabilities.data() + i * k,
                              sizeof(double) * k),
                  0)
            << tenant_names[t] << " row " << i;
        EXPECT_EQ(response->label, refs[t]->labels[i]);
        ++compared;
      }
    }
    EXPECT_TRUE(fleet.Shutdown().ok());
    EXPECT_GT(compared, 0);
    if (!config.chaos) {
      EXPECT_EQ(failed, 0);
    }

    const FleetStatsSnapshot snap = fleet.Snapshot();
    if (!config.share) {
      // Sharing off: the store is never consulted.
      EXPECT_EQ(snap.sv.models_bound, 0);
      EXPECT_EQ(snap.sv.hits + snap.sv.misses, 0);
    } else if (config.capacity == 0 && !config.chaos) {
      // Dedup bookkeeping runs but no kernel value is ever retained.
      EXPECT_GT(snap.sv.models_bound, 0);
      EXPECT_EQ(snap.sv.hits, 0);
      EXPECT_EQ(snap.sv.values_resident, 0);
    } else if (!config.chaos) {
      // t2 replays t0's queries against the same deduplicated pool, so a
      // caching store must produce hits.
      EXPECT_GT(snap.sv.hits, 0);
    }
  }
}

}  // namespace
}  // namespace gmpsvm::fleet
