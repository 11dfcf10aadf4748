#include "fleet/sv_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../test_util.h"
#include "core/mp_trainer.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"

namespace gmpsvm::fleet {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

MpSvmModel TrainSmallModel(uint64_t seed) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 15, 5, 2.5, seed));
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 16;
  options.batch.working_set.q = 8;
  SimExecutor exec(ExecutorModel::TeslaP100());
  return ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));
}

// A fixture holding two registered snapshots of the same model content and
// a query dataset to gather against.
class SvStoreTest : public ::testing::Test {
 protected:
  SvStoreTest()
      : model_(TrainSmallModel(7)),
        queries_(ValueOrDie(MakeMulticlassBlobs(3, 4, 5, 2.5, 99))) {
    ValueOrDie(models_.Register("a", model_));
    ValueOrDie(models_.Register("b", model_));
  }

  SparseRowView Query(int64_t i) const {
    const CsrMatrix& rows = queries_.features();
    return SparseRowView{rows.RowIndices(i), rows.RowValues(i)};
  }

  int64_t pool() const { return model_.pool_size(); }

  // Gathers `q` through `cache`, asserts every slot missed, commits
  // synthetic values keyed by the slot index, scaled by `salt`.
  void MissAndCommit(PredictionKernelCache* cache, const SparseRowView& q,
                     double salt) {
    std::vector<double> out(pool(), 0.0);
    std::vector<uint8_t> hit(pool(), 0);
    ASSERT_EQ(cache->Gather(q, out, hit), 0);
    std::vector<double> values(pool());
    for (int64_t j = 0; j < pool(); ++j) values[j] = salt + 0.5 * j;
    cache->Commit(q, values, hit);
  }

  MpSvmModel model_;
  Dataset queries_;
  ModelRegistry models_;
};

TEST_F(SvStoreTest, BindDedupsIdenticalPoolsAcrossModels) {
  SvStore store;
  auto a = ValueOrDie(models_.Get("a"));
  auto b = ValueOrDie(models_.Get("b"));

  PredictionKernelCache* binding_a = store.Bind(a);
  PredictionKernelCache* binding_b = store.Bind(b);
  ASSERT_NE(binding_a, nullptr);
  ASSERT_NE(binding_b, nullptr);
  EXPECT_NE(binding_a, binding_b);  // distinct snapshots, distinct bindings
  // Re-binding the same snapshot is idempotent.
  EXPECT_EQ(store.Bind(a), binding_a);
  // An invalid handle never binds.
  EXPECT_EQ(store.Bind(ModelHandle{}), nullptr);

  SvStoreStats stats = store.stats();
  EXPECT_EQ(stats.models_bound, 2);
  EXPECT_EQ(stats.pool_rows, 2 * pool());
  // Identical content collapses onto one global identity per pool row.
  EXPECT_EQ(stats.unique_svs, pool());
}

TEST_F(SvStoreTest, MissThenCommitThenHitRoundTripsValues) {
  SvStore store;
  PredictionKernelCache* cache = store.Bind(ValueOrDie(models_.Get("a")));
  const SparseRowView q = Query(0);

  ASSERT_NO_FATAL_FAILURE(MissAndCommit(cache, q, /*salt=*/1.0));

  std::vector<double> out(pool(), 0.0);
  std::vector<uint8_t> hit(pool(), 0);
  EXPECT_EQ(cache->Gather(q, out, hit), pool());
  for (int64_t j = 0; j < pool(); ++j) {
    EXPECT_EQ(hit[j], 1);
    EXPECT_EQ(out[j], 1.0 + 0.5 * j);
  }

  SvStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, pool());
  EXPECT_EQ(stats.misses, pool());  // only the first gather missed
  EXPECT_EQ(stats.queries_interned, 1);
  EXPECT_EQ(stats.values_resident, pool());
}

TEST_F(SvStoreTest, ValuesCommittedViaOneModelHitFromAnother) {
  SvStore store;
  PredictionKernelCache* binding_a = store.Bind(ValueOrDie(models_.Get("a")));
  PredictionKernelCache* binding_b = store.Bind(ValueOrDie(models_.Get("b")));
  const SparseRowView q = Query(1);

  ASSERT_NO_FATAL_FAILURE(MissAndCommit(binding_a, q, /*salt=*/3.0));

  // Model b references the same deduplicated support vectors, so the values
  // model a computed are served back — Section 3.3.3 across tenants.
  std::vector<double> out(pool(), 0.0);
  std::vector<uint8_t> hit(pool(), 0);
  EXPECT_EQ(binding_b->Gather(q, out, hit), pool());
  for (int64_t j = 0; j < pool(); ++j) {
    EXPECT_EQ(out[j], 3.0 + 0.5 * j);
  }
}

TEST_F(SvStoreTest, DifferentKernelParamsNeverShare) {
  SvStore store;
  MpSvmModel other = model_;
  other.kernel.gamma *= 2.0;  // same rows, different kernel: distinct values
  ValueOrDie(models_.Register("c", std::move(other)));

  PredictionKernelCache* binding_a = store.Bind(ValueOrDie(models_.Get("a")));
  PredictionKernelCache* binding_c = store.Bind(ValueOrDie(models_.Get("c")));
  EXPECT_EQ(store.stats().unique_svs, 2 * pool());

  const SparseRowView q = Query(2);
  ASSERT_NO_FATAL_FAILURE(MissAndCommit(binding_a, q, /*salt=*/5.0));

  std::vector<double> out(pool(), 0.0);
  std::vector<uint8_t> hit(pool(), 0);
  EXPECT_EQ(binding_c->Gather(q, out, hit), 0);
}

TEST_F(SvStoreTest, CapacityZeroDisablesValueCaching) {
  SvStoreOptions options;
  options.kernel_value_capacity = 0;
  SvStore store(options);
  PredictionKernelCache* cache = store.Bind(ValueOrDie(models_.Get("a")));
  const SparseRowView q = Query(0);

  std::vector<double> out(pool(), 0.0);
  std::vector<uint8_t> hit(pool(), 0);
  EXPECT_EQ(cache->Gather(q, out, hit), 0);
  std::vector<double> values(pool(), 1.0);
  cache->Commit(q, values, hit);
  EXPECT_EQ(cache->Gather(q, out, hit), 0);  // nothing was retained

  SvStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 2 * pool());  // miss accounting still runs
  EXPECT_EQ(stats.values_resident, 0);
  EXPECT_EQ(stats.queries_interned, 0);
}

TEST_F(SvStoreTest, EvictsWholeQueriesInFifoOrder) {
  SvStoreOptions options;
  options.kernel_value_capacity = pool();  // room for exactly one query
  SvStore store(options);
  PredictionKernelCache* cache = store.Bind(ValueOrDie(models_.Get("a")));
  const SparseRowView first = Query(0);
  const SparseRowView second = Query(1);

  ASSERT_NO_FATAL_FAILURE(MissAndCommit(cache, first, /*salt=*/1.0));
  // Exactly at capacity: nothing evicts yet.
  EXPECT_EQ(store.stats().values_evicted, 0);

  ASSERT_NO_FATAL_FAILURE(MissAndCommit(cache, second, /*salt=*/2.0));

  // The overflow retired the oldest query wholesale; the new one stayed.
  std::vector<double> out(pool(), 0.0);
  std::vector<uint8_t> hit(pool(), 0);
  EXPECT_EQ(cache->Gather(first, out, hit), 0);
  std::fill(hit.begin(), hit.end(), 0);
  EXPECT_EQ(cache->Gather(second, out, hit), pool());

  SvStoreStats stats = store.stats();
  EXPECT_EQ(stats.values_evicted, pool());
  EXPECT_EQ(stats.values_resident, pool());
}

TEST_F(SvStoreTest, UnboundedCapacityNeverEvicts) {
  SvStoreOptions options;
  options.kernel_value_capacity = -1;
  SvStore store(options);
  PredictionKernelCache* cache = store.Bind(ValueOrDie(models_.Get("a")));

  for (int64_t i = 0; i < queries_.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(MissAndCommit(cache, Query(i), /*salt=*/i * 10.0));
  }
  SvStoreStats stats = store.stats();
  EXPECT_EQ(stats.values_evicted, 0);
  EXPECT_EQ(stats.values_resident, queries_.size() * pool());
}

TEST_F(SvStoreTest, PublishesMetricsWhenGivenARegistry) {
  obs::MetricsRegistry metrics;
  SvStoreOptions options;
  options.kernel_value_capacity = pool();
  options.metrics = &metrics;
  SvStore store(options);
  PredictionKernelCache* cache = store.Bind(ValueOrDie(models_.Get("a")));

  ASSERT_NO_FATAL_FAILURE(MissAndCommit(cache, Query(0), /*salt=*/1.0));
  ASSERT_NO_FATAL_FAILURE(MissAndCommit(cache, Query(1), /*salt=*/2.0));
  std::vector<double> out(pool(), 0.0);
  std::vector<uint8_t> hit(pool(), 0);
  cache->Gather(Query(1), out, hit);

  const std::string text = metrics.ToPrometheusText();
  for (const char* series :
       {"gmpsvm_fleet_sv_hits_total", "gmpsvm_fleet_sv_misses_total",
        "gmpsvm_fleet_sv_evicted_total", "gmpsvm_fleet_sv_unique",
        "gmpsvm_fleet_sv_values_resident"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
}

}  // namespace
}  // namespace gmpsvm::fleet
