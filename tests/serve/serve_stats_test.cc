#include "serve/serve_stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace gmpsvm {
namespace {

TEST(PercentileSortedTest, NearestRankSemantics) {
  const std::vector<double> sorted{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 95.0), 10.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 99.0), 10.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(PercentileSorted({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(PercentileSorted({7.0}, 99.0), 7.0);
}

TEST(ServeStatsTest, CountersFlowIntoSnapshot) {
  ServeStats stats;
  stats.RecordAdmitted(1);
  stats.RecordAdmitted(3);
  stats.RecordRejected();
  stats.RecordExpired();
  stats.RecordFailed();
  stats.RecordBatch(2);
  stats.RecordCompleted(0.001, 0.002);
  stats.RecordCompleted(0.002, 0.004);

  const ServeStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.admitted, 2u);
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.submitted, 3u);
  EXPECT_EQ(snap.expired, 1u);
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.max_queue_depth, 3u);
  EXPECT_GT(snap.elapsed_seconds, 0.0);
  EXPECT_GT(snap.throughput_rps, 0.0);
  EXPECT_DOUBLE_EQ(snap.latency_mean, 0.003);
  EXPECT_DOUBLE_EQ(snap.latency_max, 0.004);
  EXPECT_DOUBLE_EQ(snap.queue_mean, 0.0015);
}

TEST(ServeStatsTest, BatchHistogramAndMean) {
  ServeStats stats;
  stats.RecordBatch(1);
  stats.RecordBatch(1);
  stats.RecordBatch(4);
  const ServeStatsSnapshot snap = stats.Snapshot();
  ASSERT_EQ(snap.batch_histogram.size(), 4u);
  EXPECT_EQ(snap.batch_histogram[0], 2u);  // two singleton batches
  EXPECT_EQ(snap.batch_histogram[3], 1u);  // one batch of four
  EXPECT_EQ(snap.max_batch_size, 4);
  EXPECT_DOUBLE_EQ(snap.mean_batch_size, 2.0);  // (1 + 1 + 4) / 3
}

TEST(ServeStatsTest, PercentilesFromManySamples) {
  ServeStats stats;
  for (int i = 1; i <= 100; ++i) {
    stats.RecordCompleted(0.0, static_cast<double>(i) * 1e-3);
  }
  const ServeStatsSnapshot snap = stats.Snapshot();
  EXPECT_NEAR(snap.latency_p50, 0.050, 1e-12);
  EXPECT_NEAR(snap.latency_p95, 0.095, 1e-12);
  EXPECT_NEAR(snap.latency_p99, 0.099, 1e-12);
  EXPECT_NEAR(snap.latency_max, 0.100, 1e-12);
}

TEST(ServeStatsTest, TableRendersAllMetrics) {
  ServeStats stats;
  stats.RecordAdmitted(1);
  stats.RecordBatch(1);
  stats.RecordCompleted(0.001, 0.002);
  const std::string table = stats.Snapshot().ToTable();
  for (const char* metric :
       {"throughput", "latency p50", "latency p95", "latency p99",
        "mean batch size", "max queue depth", "completed"}) {
    EXPECT_NE(table.find(metric), std::string::npos) << "missing: " << metric;
  }
}

}  // namespace
}  // namespace gmpsvm
