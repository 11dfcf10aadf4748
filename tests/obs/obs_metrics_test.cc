// Tests for the observability metrics substrate: registry identity,
// concurrent counter updates, exact nearest-rank percentiles, and the
// Prometheus exporter (label escaping included).

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace gmpsvm::obs {
namespace {

TEST(CounterTest, AddIgnoresNonPositiveDeltas) {
  Counter c;
  c.Add(2.5);
  c.Add(0.0);
  c.Add(-7.0);
  c.Increment();
  EXPECT_DOUBLE_EQ(c.Value(), 3.5);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("gmpsvm_test_total", "concurrent test");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_DOUBLE_EQ(c->Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetMaxKeepsHighWaterMark) {
  Gauge g;
  g.SetMax(3.0);
  g.SetMax(1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 3.0);
  g.Set(0.5);  // plain Set overrides
  EXPECT_DOUBLE_EQ(g.Value(), 0.5);
}

TEST(RegistryTest, SameNameAndLabelsReturnSameSeries) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("gmpsvm_x_total", "x", {{"k", "v"}});
  Counter* b = registry.GetCounter("gmpsvm_x_total", "x", {{"k", "v"}});
  Counter* other = registry.GetCounter("gmpsvm_x_total", "x", {{"k", "w"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
}

TEST(HistogramTest, PercentileEdges) {
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.Snapshot().Percentile(50.0), 0.0);

  Histogram single({1.0});
  single.Observe(7.0);
  const HistogramSnapshot one = single.Snapshot();
  EXPECT_DOUBLE_EQ(one.Percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(one.Percentile(50.0), 7.0);
  EXPECT_DOUBLE_EQ(one.Percentile(100.0), 7.0);

  Histogram h(Histogram::LatencyBuckets());
  for (int i = 100; i >= 1; --i) h.Observe(i * 1e-3);  // insertion order free
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_NEAR(snap.Percentile(50.0), 0.050, 1e-12);  // nearest rank, not
  EXPECT_NEAR(snap.Percentile(95.0), 0.095, 1e-12);  // bucket interpolation
  EXPECT_NEAR(snap.Percentile(99.0), 0.099, 1e-12);
  EXPECT_NEAR(snap.Max(), 0.100, 1e-12);
  EXPECT_NEAR(snap.Mean(), 0.0505, 1e-12);
}

TEST(HistogramTest, CumulativeBucketsAndOverflow) {
  Histogram h({1.0, 2.0, 5.0});
  h.Observe(0.5);
  h.Observe(1.0);   // inclusive upper bound: falls in le="1"
  h.Observe(1.5);
  h.Observe(100.0);  // +Inf bucket
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 2u);  // <= 1
  EXPECT_EQ(snap.bucket_counts[1], 3u);  // <= 2
  EXPECT_EQ(snap.bucket_counts[2], 3u);  // <= 5
  EXPECT_EQ(snap.bucket_counts[3], 4u);  // +Inf == count
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 103.0);
}

TEST(PrometheusTextTest, RendersTypesValuesAndHistogramSeries) {
  MetricsRegistry registry;
  registry.GetCounter("gmpsvm_requests_total", "requests")->Add(42);
  registry.GetGauge("gmpsvm_depth", "queue depth")->Set(3);
  Histogram* h = registry.GetHistogram("gmpsvm_latency_seconds", "latency",
                                       {0.5, 1.0});
  h->Observe(0.05);
  h->Observe(2.0);

  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# HELP gmpsvm_requests_total requests\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gmpsvm_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("gmpsvm_requests_total 42\n"), std::string::npos)
      << "integer counters must render without a decimal point:\n" << text;
  EXPECT_NE(text.find("# TYPE gmpsvm_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("gmpsvm_latency_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("gmpsvm_latency_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("gmpsvm_latency_seconds_count 2\n"), std::string::npos);
}

TEST(PrometheusTextTest, EscapesLabelValues) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLabelValue("line\nbreak"), "line\\nbreak");

  MetricsRegistry registry;
  registry
      .GetCounter("gmpsvm_labeled_total", "labeled",
                  {{"impl", "LibSVM w/ \"OpenMP\"\n"}})
      ->Increment();
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(
      text.find("gmpsvm_labeled_total{impl=\"LibSVM w/ \\\"OpenMP\\\"\\n\"} 1"),
      std::string::npos)
      << text;
}

}  // namespace
}  // namespace gmpsvm::obs
