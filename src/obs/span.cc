#include "obs/span.h"

#include <algorithm>

#include "common/string_util.h"

namespace gmpsvm::obs {
namespace {

std::string EscapeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

void TraceRecorder::RecordSpan(const SpanEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
}

std::vector<SpanEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<double> TraceRecorder::BusyTimePerStream() const {
  std::lock_guard<std::mutex> lock(mu_);
  int max_lane = -1;
  for (const SpanEvent& e : events_) {
    if (e.origin == SpanEvent::Origin::kDevice && !e.is_phase) {
      max_lane = std::max(max_lane, e.lane);
    }
  }
  std::vector<double> busy(static_cast<size_t>(max_lane + 1), 0.0);
  for (const SpanEvent& e : events_) {
    if (e.origin == SpanEvent::Origin::kDevice && !e.is_phase) {
      busy[static_cast<size_t>(e.lane)] += e.end_seconds - e.start_seconds;
    }
  }
  return busy;
}

std::string TraceRecorder::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto append = [&out, &first](const std::string& record) {
    if (!first) out += ",";
    first = false;
    out += record;
  };

  // Process metadata so Perfetto labels the two clock domains, plus one
  // thread-name record per lane actually used.
  bool have_device = false, have_host = false;
  std::vector<int> device_lanes, host_lanes;
  for (const SpanEvent& e : events_) {
    const bool device = e.origin == SpanEvent::Origin::kDevice;
    (device ? have_device : have_host) = true;
    std::vector<int>& lanes = device ? device_lanes : host_lanes;
    if (std::find(lanes.begin(), lanes.end(), e.lane) == lanes.end()) {
      lanes.push_back(e.lane);
    }
  }
  std::sort(device_lanes.begin(), device_lanes.end());
  std::sort(host_lanes.begin(), host_lanes.end());
  if (have_device) {
    append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
           "\"args\":{\"name\":\"simulated device (sim time)\"}}");
    for (int lane : device_lanes) {
      append(StrPrintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                       "\"tid\":%d,\"args\":{\"name\":\"stream %d\"}}",
                       lane, lane));
    }
  }
  if (have_host) {
    append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"args\":{\"name\":\"host (wall time)\"}}");
    for (int lane : host_lanes) {
      append(StrPrintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                       "\"tid\":%d,\"args\":{\"name\":\"worker %d\"}}",
                       lane, lane));
    }
  }

  for (const SpanEvent& e : events_) {
    const int pid = e.origin == SpanEvent::Origin::kDevice ? 0 : 1;
    std::string name = e.name;
    if (name.empty()) name = e.is_transfer ? "transfer" : "kernel";
    append(StrPrintf(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"flops\":%.3e,\"bytes\":%.3e}}",
        EscapeName(name).c_str(), pid, e.lane, e.start_seconds * 1e6,
        (e.end_seconds - e.start_seconds) * 1e6, e.flops, e.bytes));
  }
  out += "]}";
  return out;
}

}  // namespace gmpsvm::obs
