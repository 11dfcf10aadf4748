#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "serve/serve_stats.h"

namespace gmpsvm::e2e {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, pct);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= 10) {
    tail.value = values.back();
    return tail;
  }
  tail.value = values[n - 11];  // nearest rank n - 10 (1-based)
  tail.pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

const std::vector<MetricDef>& Catalog() {
  static const std::vector<MetricDef> catalog = {
      // End to end. op_ms times the workload's unit of work: one Train
      // call, one 2048-row Predict, one request served at the `mid` rate,
      // one online update cycle.
      {"setup_s", "s", true, Agg::kMedian},
      {"op_ms", "ms", true, Agg::kSet},
      {"test_logloss", "nats", true, Agg::kSet},

      // data
      {"data.generate_s", "s", false, Agg::kMedian},

      // core: training (Train calls; WarmRetrain on retrain-k16)
      {"core.train.wall_s", "s", false, Agg::kMedian},
      {"core.train.sim_s", "s", false, Agg::kMedian},
      {"core.train.kernel_values_sim_s", "s", false, Agg::kPerOp},
      {"core.train.subproblem_sim_s", "s", false, Agg::kPerOp},
      {"core.train.other_sim_s", "s", false, Agg::kPerOp},
      {"core.train.sigmoid_sim_s", "s", false, Agg::kPerOp},
      {"core.train.wall_per_sim", "ratio", false, Agg::kSet},

      // solver (per op)
      {"solver.iterations", "count", false, Agg::kPerOp},
      {"solver.outer_rounds", "count", false, Agg::kPerOp},
      {"solver.kernel_rows_computed", "count", false, Agg::kPerOp},
      {"solver.kernel_rows_reused", "count", false, Agg::kPerOp},
      {"solver.row_reuse_ratio", "ratio", false, Agg::kSet},

      // device: counters of the executors running the workload's op
      {"device.kernel_values_computed", "count", false, Agg::kPerOp},
      {"device.kernel_values_reused", "count", false, Agg::kPerOp},
      {"device.kernel_reuse_ratio", "ratio", false, Agg::kSet},
      {"device.launches", "count", false, Agg::kPerOp},
      {"device.flops", "flop", false, Agg::kPerOp},
      {"device.bytes_h2d", "B", false, Agg::kPerOp},
      {"device.peak_bytes", "B", false, Agg::kMax},

      // simd: process-wide path counters over the workload's ops (per op)
      {"simd.batch_row_dots.calls", "count", false, Agg::kPerOp},
      {"simd.batch_row_dots.elements", "count", false, Agg::kPerOp},
      {"simd.batch_row_dots.wall_s", "s", false, Agg::kPerOp},
      {"simd.kernel_transform.calls", "count", false, Agg::kPerOp},
      {"simd.kernel_transform.elements", "count", false, Agg::kPerOp},
      {"simd.kernel_transform.wall_s", "s", false, Agg::kPerOp},
      {"simd.coupling.calls", "count", false, Agg::kPerOp},
      {"simd.coupling.wall_s", "s", false, Agg::kPerOp},
      {"simd.scatter_row_dots.calls", "count", false, Agg::kPerOp},

      // core: prediction (every Predict call the benchmark makes itself)
      {"core.predict.call_wall_s", "s", false, Agg::kMedian},
      {"core.predict.sim_s", "s", false, Agg::kMedian},
      {"core.predict.decision_values_sim_s", "s", false, Agg::kMedian},
      {"core.predict.sigmoid_sim_s", "s", false, Agg::kMedian},
      {"core.predict.coupling_sim_s", "s", false, Agg::kMedian},
      {"core.predict.kernel_values_per_row", "count", false, Agg::kMedian},

      // prob: quality of the probabilities behind test_logloss
      {"prob.test_error", "ratio", false, Agg::kSet},

      // serve: per fixed rate, then totals over the run
      {"serve.p50_ms.low", "ms", false, Agg::kSet},
      {"serve.p50_ms.mid", "ms", false, Agg::kSet},
      {"serve.p50_ms.high", "ms", false, Agg::kSet},
      {"serve.p99_ms.low", "ms", false, Agg::kSet},
      {"serve.p99_ms.mid", "ms", false, Agg::kSet},
      {"serve.p99_ms.high", "ms", false, Agg::kSet},
      {"serve.queue_wait_p50_ms.low", "ms", false, Agg::kSet},
      {"serve.queue_wait_p50_ms.mid", "ms", false, Agg::kSet},
      {"serve.queue_wait_p50_ms.high", "ms", false, Agg::kSet},
      {"serve.queue_wait_p99_ms.low", "ms", false, Agg::kSet},
      {"serve.queue_wait_p99_ms.mid", "ms", false, Agg::kSet},
      {"serve.queue_wait_p99_ms.high", "ms", false, Agg::kSet},
      {"serve.service_p50_ms.low", "ms", false, Agg::kSet},
      {"serve.service_p50_ms.mid", "ms", false, Agg::kSet},
      {"serve.service_p50_ms.high", "ms", false, Agg::kSet},
      {"serve.mean_batch_size.low", "count", false, Agg::kSet},
      {"serve.mean_batch_size.mid", "count", false, Agg::kSet},
      {"serve.mean_batch_size.high", "count", false, Agg::kSet},
      {"serve.max_queue_depth", "count", false, Agg::kMax},
      {"serve.dispatch_lag_p99_ms", "ms", false, Agg::kSet},
      {"serve.max_rps", "1/s", false, Agg::kSet},
      {"serve.swap_s", "s", false, Agg::kMedian},

      // online: stages of one update cycle
      {"online.apply_delta_s", "s", false, Agg::kMedian},
      {"online.checkpoints_s", "s", false, Agg::kMedian},
      {"online.warm_retrain_s", "s", false, Agg::kMedian},
      {"online.canary_predict_s", "s", false, Agg::kMedian},
      {"online.pairs_retrained", "count", false, Agg::kPerOp},
      {"online.pairs_carried", "count", false, Agg::kPerOp},
      {"online.warm_seeded_rows", "count", false, Agg::kPerOp},

      // Traced over untraced op_ms, minus 1 (traced runs only).
      {"trace.overhead", "ratio", false, Agg::kSet},
  };
  return catalog;
}

namespace {

// The layer a span name belongs to: the text before its first '.', or
// "bench" for the benchmark's own spans ("rep 3", "ladder 8800 rps").
std::string LayerOf(std::string_view span_name) {
  const size_t dot = span_name.find('.');
  const size_t space = span_name.find(' ');
  if (dot == std::string_view::npos || (space != std::string_view::npos && space < dot)) {
    return "bench";
  }
  return std::string(span_name.substr(0, dot));
}

const MetricDef& FindDef(std::string_view name) {
  for (const MetricDef& def : Catalog()) {
    if (name == def.name) return def;
  }
  std::fprintf(stderr, "internal error: metric '%.*s' is not in the catalog\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

}  // namespace

void MetricSet::Record(std::string_view name, double value) {
  const MetricDef& def = FindDef(name);
  auto it = entries_.find(name);
  if (it == entries_.end()) it = entries_.emplace(std::string(name), Entry{}).first;
  Entry& entry = it->second;
  if (def.agg == Agg::kMedian) entry.samples.push_back(value);
  entry.sum += value;
  entry.last = value;
  entry.max = entry.count == 0 ? value : std::max(entry.max, value);
  ++entry.count;
}

double MetricSet::Resolve(std::string_view name, int64_t ops) const {
  const MetricDef& def = FindDef(name);
  auto it = entries_.find(name);
  if (it == entries_.end()) return 0.0;
  const Entry& entry = it->second;
  switch (def.agg) {
    case Agg::kMedian:
      return Median(entry.samples);
    case Agg::kPerOp:
      return ops > 0 ? entry.sum / static_cast<double>(ops) : 0.0;
    case Agg::kMax:
      return entry.max;
    case Agg::kSet:
      return entry.last;
  }
  return 0.0;
}

int64_t MetricSet::Count(std::string_view name) const {
  FindDef(name);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.count;
}

uint64_t SpanLog::Open(std::string name, uint64_t parent) {
  const double now = SecondsSinceEpoch(MonotonicNow());
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.start = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::Close(uint64_t id) {
  const double now = SecondsSinceEpoch(MonotonicNow());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = now;
}

uint64_t SpanLog::Add(std::string name, uint64_t parent, uint64_t request,
                      MonotonicTime start, MonotonicTime end) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start = SecondsSinceEpoch(start);
  span.end = SecondsSinceEpoch(end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string SpanLog::ChromeEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out =
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"benchmark (wall time)\"}}";
  for (const Span& s : spans_) {
    if (s.end < s.start) continue;
    const std::string args = StrPrintf(
        "\"args\":{\"span_id\":%llu,\"parent_id\":%llu,\"request_id\":%llu}",
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request));
    if (s.request != 0) {
      for (const auto& [phase, ts] : {std::pair<const char*, double>{"b", s.start},
                                      std::pair<const char*, double>{"e", s.end}}) {
        out += StrPrintf(
            ",{\"name\":%s,\"cat\":\"request\",\"ph\":\"%s\",\"id\":%llu,"
            "\"pid\":2,\"tid\":0,\"ts\":%.3f,%s}",
            JsonString(s.name).c_str(), phase,
            static_cast<unsigned long long>(s.request), ts * 1e6, args.c_str());
      }
    } else {
      out += StrPrintf(
          ",{\"name\":%s,\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":%.3f,"
          "\"dur\":%.3f,%s}",
          JsonString(s.name).c_str(), s.start * 1e6, (s.end - s.start) * 1e6,
          args.c_str());
    }
  }
  return out;
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end >= s.start) {
      children[s.parent - 1].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;
    // Union of the children's intervals clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cursor = s.start;
    for (const auto& [begin, end] : kids) {
      const double lo = std::max(begin, cursor);
      const double hi = std::min(end, s.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[LayerOf(s.name)] += (s.end - s.start) - covered;
  }
  return self;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace gmpsvm::e2e
