#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace gmpsvm::obs {
namespace {

// Nearest-rank percentile over an ascending-sorted vector; mirrors
// PercentileSorted in serve/serve_stats.h (duplicated here to keep obs/ a
// leaf dependency).
double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size());
  const size_t index = static_cast<size_t>(std::ceil(rank));
  return sorted[std::min(sorted.size() - 1, index == 0 ? 0 : index - 1)];
}

std::string SerializeLabels(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1e';
  }
  return key;
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first;
    out += "=\"";
    out += EscapeLabelValue(labels[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

// Like RenderLabels but with an extra `le` label appended (histogram buckets).
std::string RenderBucketLabels(const Labels& labels, const std::string& le) {
  std::string out = "{";
  for (const auto& [k, v] : labels) {
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += "\",";
  }
  out += "le=\"" + le + "\"}";
  return out;
}

}  // namespace

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string FormatMetricValue(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    return StrPrintf("%lld", static_cast<long long>(value));
  }
  return StrPrintf("%.17g", value);
}

double HistogramSnapshot::Percentile(double pct) const {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  return NearestRank(sorted, pct);
}

double HistogramSnapshot::Max() const {
  double max = 0.0;
  for (double s : samples) max = std::max(max, s);
  return max;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  bucket_counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  // Inclusive upper bounds (Prometheus `le`): the first bound >= value.
  const size_t bucket =
      static_cast<size_t>(std::lower_bound(bounds_.begin(), bounds_.end(), value) -
                          bounds_.begin());
  std::lock_guard<std::mutex> lock(mu_);
  ++bucket_counts_[bucket];
  ++count_;
  sum_ += value;
  samples_.push_back(value);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.count = count_;
    snap.sum = sum_;
    snap.samples = samples_;
    snap.bucket_counts = bucket_counts_;
  }
  // Convert per-bucket counts to cumulative (Prometheus `le`).
  uint64_t running = 0;
  for (uint64_t& c : snap.bucket_counts) {
    running += c;
    c = running;
  }
  return snap;
}

std::vector<double> Histogram::LatencyBuckets() {
  return {1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2,
          1e-1, 2e-1, 5e-1, 1.0,  2.0,  5.0,  10.0, 30.0, 100.0};
}

std::vector<double> Histogram::SizeBuckets() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 4096.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

MetricsRegistry::Family* MetricsRegistry::GetFamily(std::string_view name,
                                                    std::string_view help,
                                                    Type type) {
  auto [it, inserted] = families_.try_emplace(std::string(name));
  Family& family = it->second;
  if (inserted) {
    family.type = type;
    family.help = std::string(help);
  }
  assert(family.type == type && "metric re-registered with a different type");
  if (family.type != type) return nullptr;
  return &family;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help,
                                     const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamily(name, help, Type::kCounter);
  if (family == nullptr) return nullptr;
  auto [it, inserted] = family->children.try_emplace(SerializeLabels(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.counter = std::make_unique<Counter>();
  }
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamily(name, help, Type::kGauge);
  if (family == nullptr) return nullptr;
  auto [it, inserted] = family->children.try_emplace(SerializeLabels(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.gauge = std::make_unique<Gauge>();
  }
  return it->second.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         std::vector<double> bounds,
                                         const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamily(name, help, Type::kHistogram);
  if (family == nullptr) return nullptr;
  if (family->children.empty()) family->bounds = bounds;
  auto [it, inserted] = family->children.try_emplace(SerializeLabels(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.histogram = std::make_unique<Histogram>(family->bounds);
  }
  return it->second.histogram.get();
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    const char* type_name = family.type == Type::kCounter   ? "counter"
                            : family.type == Type::kGauge   ? "gauge"
                                                            : "histogram";
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " " + type_name + "\n";
    for (const auto& [key, series] : family.children) {
      switch (family.type) {
        case Type::kCounter:
          out += name + RenderLabels(series.labels) + " " +
                 FormatMetricValue(series.counter->Value()) + "\n";
          break;
        case Type::kGauge:
          out += name + RenderLabels(series.labels) + " " +
                 FormatMetricValue(series.gauge->Value()) + "\n";
          break;
        case Type::kHistogram: {
          const HistogramSnapshot snap = series.histogram->Snapshot();
          for (size_t b = 0; b < snap.bucket_counts.size(); ++b) {
            const std::string le = b < snap.bounds.size()
                                       ? FormatMetricValue(snap.bounds[b])
                                       : "+Inf";
            out += name + "_bucket" + RenderBucketLabels(series.labels, le) +
                   " " + FormatMetricValue(static_cast<double>(snap.bucket_counts[b])) +
                   "\n";
          }
          out += name + "_sum" + RenderLabels(series.labels) + " " +
                 FormatMetricValue(snap.sum) + "\n";
          out += name + "_count" + RenderLabels(series.labels) + " " +
                 FormatMetricValue(static_cast<double>(snap.count)) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace gmpsvm::obs
