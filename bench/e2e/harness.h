// Measurement plumbing of the end-to-end benchmark (gmpsvm_bench.cc): the
// metric catalog every workload reports, sample statistics, and the
// in-memory span log behind --trace.

#ifndef GMPSVM_BENCH_E2E_HARNESS_H_
#define GMPSVM_BENCH_E2E_HARNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/deadline.h"

namespace gmpsvm::e2e {

// --- Statistics --------------------------------------------------------------

// Median with the mean of the middle pair for even counts; 0 when empty.
double Median(std::vector<double> values);

// Nearest-rank percentile (serve's PercentileSorted); 0 when empty.
double Percentile(std::vector<double> values, double pct);

// The highest percentile that still has at least ten samples beyond it: the
// value of nearest rank n - 10, reported with its percentile 100 (n - 10) / n.
// With n <= 10 no such percentile exists; the maximum is reported as p100.
struct Tail {
  double value = 0.0;
  double pct = 100.0;
};
Tail TailOf(std::vector<double> values);

// --- Metric catalog ----------------------------------------------------------

// How a metric's recorded values reduce to the one number reported.
enum class Agg {
  kMedian,  // median of the recorded samples (per-call timings)
  kPerOp,   // sum of the recorded values divided by the workload's op count
  kMax,     // high-water mark
  kSet,     // the last recorded value
};

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;  // BENCHMARK.json "end_to_end" (else "per_layer")
  Agg agg;
};

// Every metric the benchmark reports, in output order. Each workload reports
// every entry; a layer a workload does not exercise reports 0.
const std::vector<MetricDef>& Catalog();

// Recorded values of one workload run, keyed by catalog name. Recording a
// name that is not in the catalog aborts: the catalog, BENCHMARK.json and
// the smoke test must agree.
class MetricSet {
 public:
  void Record(std::string_view name, double value);

  // The reported value of `name` (see Agg); `ops` divides kPerOp sums.
  double Resolve(std::string_view name, int64_t ops) const;

  // Number of values recorded under `name`.
  int64_t Count(std::string_view name) const;

 private:
  struct Entry {
    std::vector<double> samples;
    double sum = 0.0;
    double last = 0.0;
    double max = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, Entry, std::less<>> entries_;
};

// --- Spans -------------------------------------------------------------------

// Wall-clock span tree of a traced run: workload -> rep -> layer call, plus
// one span per served request from its scheduled send to its completion
// callback, carrying the request id. A span's layer is its name up to the
// first '.' ("core.GmpSvmTrainer::Train" belongs to core); names without a
// '.' belong to the benchmark itself. Thread-safe; kept in memory and
// written out once at the end of the run.
class SpanLog {
 public:
  // Span times are seconds since `epoch` (pass the runtime TraceRecorder's
  // creation time so both traces share one host time axis).
  explicit SpanLog(MonotonicTime epoch) : epoch_(epoch) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // Opens a span starting now; returns its id (ids start at 1; parent 0 is
  // the root).
  uint64_t Open(std::string name, uint64_t parent);
  void Close(uint64_t id);

  // Records a finished span with explicit endpoints; returns its id.
  uint64_t Add(std::string name, uint64_t parent, uint64_t request,
               MonotonicTime start, MonotonicTime end);

  // Chrome trace-event records (comma-separated, no brackets) on pid 2.
  // Request spans are async events keyed by their request id; the others
  // are complete events on the main lane.
  std::string ChromeEvents() const;

  // Per layer, the summed self time: each span's duration minus the part
  // of it covered by its children.
  std::map<std::string, double> SelfSeconds() const;

  size_t size() const;

 private:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    std::string name;
    double start = 0.0;
    double end = -1.0;  // < start while open
  };

  double SecondsSinceEpoch(MonotonicTime t) const {
    return SecondsBetween(epoch_, t);
  }

  const MonotonicTime epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // spans_[id - 1]
};

// RAII span on `log`; a null log makes it a no-op whose id() is 0.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t parent)
      : log_(log), id_(log != nullptr ? log->Open(std::move(name), parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

// JSON string literal with the characters trace names can contain escaped.
std::string JsonString(std::string_view text);

}  // namespace gmpsvm::e2e

#endif  // GMPSVM_BENCH_E2E_HARNESS_H_
