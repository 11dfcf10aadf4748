#include "serve/serve_stats.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "metrics/report.h"

namespace gmpsvm {

double PercentileSorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size());
  const size_t index = static_cast<size_t>(std::ceil(rank));
  return sorted[std::min(sorted.size() - 1, index == 0 ? 0 : index - 1)];
}

ServeStats::ServeStats(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  registry_ = registry;
  admitted_ = registry_->GetCounter("gmpsvm_serve_admitted_total",
                                    "Requests accepted at admission.");
  rejected_ = registry_->GetCounter(
      "gmpsvm_serve_rejected_total",
      "Requests rejected at admission (queue full or malformed).");
  expired_ = registry_->GetCounter("gmpsvm_serve_expired_total",
                                   "Requests whose deadline passed while queued.");
  failed_ = registry_->GetCounter("gmpsvm_serve_failed_total",
                                  "Requests failed by prediction errors.");
  batches_ = registry_->GetCounter("gmpsvm_serve_batches_total",
                                   "Micro-batches executed.");
  faults_ = registry_->GetCounter(
      "gmpsvm_serve_faults_total",
      "Transient prediction faults observed by workers.");
  retries_ = registry_->GetCounter(
      "gmpsvm_serve_retries_total",
      "Per-request prediction retries after transient faults.");
  degraded_entries_ = registry_->GetCounter(
      "gmpsvm_serve_degraded_entries_total",
      "Times the server shrank its effective max batch size under faults.");
  effective_max_batch_ = registry_->GetGauge(
      "gmpsvm_serve_effective_max_batch",
      "Current effective max batch size (shrinks in degraded mode).");
  max_queue_depth_ = registry_->GetGauge(
      "gmpsvm_serve_max_queue_depth",
      "Queue-depth high-water mark observed at admissions.");
  batch_size_ = registry_->GetHistogram("gmpsvm_serve_batch_size",
                                        "Requests per executed micro-batch.",
                                        obs::Histogram::SizeBuckets());
  latency_ = registry_->GetHistogram(
      "gmpsvm_serve_latency_seconds",
      "End-to-end request latency (admission to response).",
      obs::Histogram::LatencyBuckets());
  queue_wait_ = registry_->GetHistogram(
      "gmpsvm_serve_queue_wait_seconds",
      "Queue wait (admission to batch formation).",
      obs::Histogram::LatencyBuckets());
}

void ServeStats::RecordAdmitted(size_t queue_depth_after) {
  admitted_->Increment();
  max_queue_depth_->SetMax(static_cast<double>(queue_depth_after));
}

void ServeStats::RecordRejected() { rejected_->Increment(); }

void ServeStats::RecordBatch(int batch_size) {
  if (batch_size <= 0) return;
  batches_->Increment();
  batch_size_->Observe(static_cast<double>(batch_size));
}

void ServeStats::RecordExpired() { expired_->Increment(); }

void ServeStats::RecordFailed() { failed_->Increment(); }

void ServeStats::RecordCompleted(double queue_seconds, double total_seconds) {
  queue_wait_->Observe(queue_seconds);
  latency_->Observe(total_seconds);
}

void ServeStats::RecordFault() { faults_->Increment(); }

void ServeStats::RecordRetry() { retries_->Increment(); }

void ServeStats::RecordDegradedEntry() { degraded_entries_->Increment(); }

void ServeStats::SetEffectiveMaxBatch(int max_batch) {
  effective_max_batch_->Set(static_cast<double>(max_batch));
}

ServeStatsSnapshot ServeStats::Snapshot() const {
  ServeStatsSnapshot snap;
  snap.admitted = static_cast<uint64_t>(admitted_->Value());
  snap.rejected = static_cast<uint64_t>(rejected_->Value());
  snap.expired = static_cast<uint64_t>(expired_->Value());
  snap.failed = static_cast<uint64_t>(failed_->Value());
  snap.batches = static_cast<uint64_t>(batches_->Value());
  snap.faults = static_cast<uint64_t>(faults_->Value());
  snap.retries = static_cast<uint64_t>(retries_->Value());
  snap.degraded_entries = static_cast<uint64_t>(degraded_entries_->Value());
  snap.effective_max_batch = static_cast<int>(effective_max_batch_->Value());
  snap.max_queue_depth = static_cast<size_t>(max_queue_depth_->Value());
  snap.elapsed_seconds = elapsed_.ElapsedSeconds();

  const obs::HistogramSnapshot latencies = latency_->Snapshot();
  const obs::HistogramSnapshot queue_waits = queue_wait_->Snapshot();
  const obs::HistogramSnapshot batch_sizes = batch_size_->Snapshot();

  snap.submitted = snap.admitted + snap.rejected;
  snap.completed = latencies.count;
  if (snap.elapsed_seconds > 0.0) {
    snap.throughput_rps =
        static_cast<double>(snap.completed) / snap.elapsed_seconds;
  }

  if (latencies.count > 0) {
    snap.latency_mean = latencies.Mean();
    snap.latency_p50 = latencies.Percentile(50.0);
    snap.latency_p95 = latencies.Percentile(95.0);
    snap.latency_p99 = latencies.Percentile(99.0);
    snap.latency_max = latencies.Max();
  }
  if (queue_waits.count > 0) {
    snap.queue_mean = queue_waits.Mean();
    snap.queue_p99 = queue_waits.Percentile(99.0);
  }

  // Rebuild the exact per-size batch histogram from the retained samples
  // (index i = batches of size i+1, trailing zeros trimmed).
  uint64_t batched_requests = 0;
  for (double s : batch_sizes.samples) {
    const size_t size = static_cast<size_t>(s);
    if (size == 0) continue;
    if (snap.batch_histogram.size() < size) snap.batch_histogram.resize(size, 0);
    ++snap.batch_histogram[size - 1];
    batched_requests += size;
    snap.max_batch_size = std::max(snap.max_batch_size, static_cast<int>(size));
  }
  if (snap.batches > 0) {
    snap.mean_batch_size = static_cast<double>(batched_requests) /
                           static_cast<double>(snap.batches);
  }
  return snap;
}

std::string ServeStatsSnapshot::ToTable() const {
  TablePrinter table({"metric", "value"});
  table.AddRow({"submitted", std::to_string(submitted)});
  table.AddRow({"admitted", std::to_string(admitted)});
  table.AddRow({"rejected", std::to_string(rejected)});
  table.AddRow({"expired", std::to_string(expired)});
  table.AddRow({"failed", std::to_string(failed)});
  table.AddRow({"completed", std::to_string(completed)});
  table.AddRow({"batches", std::to_string(batches)});
  table.AddRow({"faults", std::to_string(faults)});
  table.AddRow({"retries", std::to_string(retries)});
  table.AddRow({"degraded entries", std::to_string(degraded_entries)});
  table.AddRow({"mean batch size", StrPrintf("%.2f", mean_batch_size)});
  table.AddRow({"max batch size", std::to_string(max_batch_size)});
  table.AddRow({"max queue depth", std::to_string(max_queue_depth)});
  table.AddRow({"throughput", StrPrintf("%.1f req/s", throughput_rps)});
  table.AddRow({"latency mean", HumanSeconds(latency_mean)});
  table.AddRow({"latency p50", HumanSeconds(latency_p50)});
  table.AddRow({"latency p95", HumanSeconds(latency_p95)});
  table.AddRow({"latency p99", HumanSeconds(latency_p99)});
  table.AddRow({"latency max", HumanSeconds(latency_max)});
  table.AddRow({"queue wait mean", HumanSeconds(queue_mean)});
  table.AddRow({"queue wait p99", HumanSeconds(queue_p99)});
  return table.ToString();
}

}  // namespace gmpsvm
