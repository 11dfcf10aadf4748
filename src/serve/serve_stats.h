// ServeStats: the serving layer's view over the observability registry.
//
// Workers and the admission path record events; every event lands in
// obs::MetricsRegistry series (gmpsvm_serve_* counters, gauges and
// histograms), so a Prometheus scrape and the CLI table are two renderings
// of the same state. A Snapshot() is a consistent copy that computes the
// derived numbers (percentiles, throughput, batch histogram) from the
// registry's retained histogram samples with exactly the pre-registry
// semantics (nearest-rank percentiles), and renders itself through the
// metrics-layer TablePrinter for CLI/benchmark output.
//
// By default a ServeStats owns a private registry; pass one in to publish
// into a shared registry (e.g. the process-wide one svm_tool dumps with
// --metrics-out).

#ifndef GMPSVM_SERVE_SERVE_STATS_H_
#define GMPSVM_SERVE_SERVE_STATS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace gmpsvm {

struct ServeStatsSnapshot {
  // Counters.
  uint64_t submitted = 0;  // admission attempts
  uint64_t admitted = 0;
  uint64_t rejected = 0;  // kResourceExhausted at the door
  uint64_t expired = 0;   // deadline passed while queued
  uint64_t failed = 0;    // prediction errors
  uint64_t completed = 0;
  uint64_t batches = 0;

  // Fault recovery.
  uint64_t faults = 0;            // transient prediction faults observed
  uint64_t retries = 0;           // per-request retries after faults
  uint64_t degraded_entries = 0;  // times the server shrank its max batch
  int effective_max_batch = 0;    // current degraded-mode batch cap (0 = unset)

  // Derived.
  double elapsed_seconds = 0.0;
  double throughput_rps = 0.0;  // completed / elapsed

  // End-to-end latency (admission -> response) in seconds.
  double latency_mean = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;

  // Queue wait (admission -> batch formation) in seconds.
  double queue_mean = 0.0;
  double queue_p99 = 0.0;

  // Batch-size distribution: histogram[i] counts batches of size i+1
  // (trailing zeros trimmed).
  std::vector<uint64_t> batch_histogram;
  double mean_batch_size = 0.0;
  int max_batch_size = 0;

  // Queue-depth high-water mark observed at admissions.
  size_t max_queue_depth = 0;

  // Renders counters + latency table ("metric" / "value" columns).
  std::string ToTable() const;
};

class ServeStats {
 public:
  // Publishes into `registry`; nullptr creates a private registry.
  explicit ServeStats(obs::MetricsRegistry* registry = nullptr);

  ServeStats(const ServeStats&) = delete;
  ServeStats& operator=(const ServeStats&) = delete;

  // Admission path.
  void RecordAdmitted(size_t queue_depth_after);
  void RecordRejected();

  // Worker path.
  void RecordBatch(int batch_size);
  void RecordExpired();
  void RecordFailed();
  void RecordCompleted(double queue_seconds, double total_seconds);

  // Fault-recovery path.
  void RecordFault();
  void RecordRetry();
  void RecordDegradedEntry();
  void SetEffectiveMaxBatch(int max_batch);

  ServeStatsSnapshot Snapshot() const;

  // The registry this object publishes into (for exporters).
  obs::MetricsRegistry* registry() const { return registry_; }

 private:
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;
  Stopwatch elapsed_;

  obs::Counter* admitted_;
  obs::Counter* rejected_;
  obs::Counter* expired_;
  obs::Counter* failed_;
  obs::Counter* batches_;
  obs::Counter* faults_;
  obs::Counter* retries_;
  obs::Counter* degraded_entries_;
  obs::Gauge* effective_max_batch_;
  obs::Gauge* max_queue_depth_;
  obs::Histogram* batch_size_;
  obs::Histogram* latency_;
  obs::Histogram* queue_wait_;
};

// Percentile of `sorted` (ascending) by nearest-rank; 0 for empty input.
// Exposed for tests and other reporters (obs::HistogramSnapshot::Percentile
// applies the same formula to its retained samples).
double PercentileSorted(const std::vector<double>& sorted, double pct);

}  // namespace gmpsvm

#endif  // GMPSVM_SERVE_SERVE_STATS_H_
