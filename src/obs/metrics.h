// MetricsRegistry: the one observability substrate behind every resource-
// accounting number this repository reports. The paper's claims are all
// resource claims — kernel values computed vs. reused (Table 3), per-phase
// time (Figures 11/12), serve latency distributions — and before this layer
// each producer (ExecutorCounters, MpTrainReport, SolverStats, ServeStats)
// kept its own ad-hoc struct and printer. Now they all publish into one
// thread-safe registry of counters, gauges and histograms, exportable as
// Prometheus text (scrapeable), while the legacy structs remain as thin
// views over registry state with byte-identical printed output.
//
// Model (a deliberately small subset of the Prometheus data model):
//   * Counter   — monotonically increasing double (Add >= 0).
//   * Gauge     — settable double; SetMax keeps a high-water mark.
//   * Histogram — fixed cumulative buckets for export, plus retained raw
//     samples so exact nearest-rank percentiles (p50/p95/p99) match what the
//     pre-registry reporters computed from their sample vectors.
//   * Families  — one name+help+type, many children distinguished by labels.
//
// Thread safety: all mutating entry points are safe for concurrent use.
// Counters and gauges are lock-free atomics; histograms take a per-instance
// mutex; registry lookups take the registry mutex. Pointers returned by
// Get* are stable for the registry's lifetime.

#ifndef GMPSVM_OBS_METRICS_H_
#define GMPSVM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gmpsvm::obs {

// Ordered label key/value pairs, e.g. {{"phase", "sigmoid"}}. Order is
// preserved in the exported text.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  // Negative deltas are ignored (counters are monotonic).
  void Add(double delta) {
    if (delta <= 0.0) return;
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  void Increment() { Add(1.0); }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }

  // Keeps the maximum of the current value and `value` (high-water marks,
  // e.g. peak queue depth / peak device memory).
  void SetMax(double value) {
    double current = value_.load(std::memory_order_relaxed);
    while (current < value &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Consistent copy of a histogram's state. `bucket_counts` is cumulative
// (Prometheus `le` semantics) with one entry per configured bound plus the
// trailing +Inf bucket; `samples` is every observed value in observation
// order.
struct HistogramSnapshot {
  std::vector<double> bounds;          // upper bounds, ascending (no +Inf)
  std::vector<uint64_t> bucket_counts; // cumulative; size = bounds.size() + 1
  uint64_t count = 0;
  double sum = 0.0;

  std::vector<double> samples;

  // Exact nearest-rank percentile over the retained samples — the same
  // semantics ServeStats always used (PercentileSorted), not a bucket
  // interpolation. 0 for an empty histogram.
  double Percentile(double pct) const;
  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  double Max() const;
};

class Histogram {
 public:
  // `bounds` are inclusive upper bounds, strictly ascending; a +Inf bucket
  // is always appended. An empty list still yields a usable single-bucket
  // histogram.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  HistogramSnapshot Snapshot() const;

  // Default latency bucket bounds: 100us .. ~100s, roughly 1-2-5 per decade.
  static std::vector<double> LatencyBuckets();
  // Default size buckets: powers of two 1 .. 4096.
  static std::vector<double> SizeBuckets();

 private:
  const std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<uint64_t> bucket_counts_;  // non-cumulative, per bucket
  uint64_t count_ = 0;
  double sum_ = 0.0;
  std::vector<double> samples_;
};

// Thread-safe registry of metric families. Looking up an existing
// (name, labels) pair returns the same instance, so producers in different
// modules can share a series. Registering the same name with a different
// type is a programming error (asserted in debug, first registration wins in
// release).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help,
                      const Labels& labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  const Labels& labels = {});
  // `bounds` is only consulted when the family is first created.
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          std::vector<double> bounds, const Labels& labels = {});

  // Prometheus text exposition format, families sorted by name, with
  // # HELP / # TYPE headers and escaped label values. Histograms export
  // cumulative `_bucket{le=...}`, `_sum` and `_count` series.
  std::string ToPrometheusText() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Type type = Type::kCounter;
    std::string help;
    std::vector<double> bounds;              // histograms only
    std::map<std::string, Series> children;  // keyed by serialized labels
  };

  Family* GetFamily(std::string_view name, std::string_view help, Type type);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

// Escapes a Prometheus label value: backslash, double-quote and newline.
std::string EscapeLabelValue(std::string_view value);

// Formats a metric value the way Prometheus text expects: integers without
// a decimal point, everything else in shortest round-trip form.
std::string FormatMetricValue(double value);

}  // namespace gmpsvm::obs

#endif  // GMPSVM_OBS_METRICS_H_
