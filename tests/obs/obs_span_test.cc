// Tests for the span layer: the merged device + host Chrome trace export,
// busy-time semantics (phase envelopes excluded), and lane bases for shared
// recorders. Also guards the removal of the old ExecutionTrace shim: the
// public docs must not resurrect the deleted header.

#include "obs/span.h"

#include <algorithm>
#include <fstream>
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../test_util.h"
#include "core/mp_trainer.h"
#include "device/executor.h"

namespace gmpsvm {
namespace {

using obs::SpanEvent;
using obs::TraceRecorder;

SpanEvent DeviceSpan(int lane, double start, double end, bool is_phase = false) {
  SpanEvent e;
  e.origin = SpanEvent::Origin::kDevice;
  e.lane = lane;
  e.start_seconds = start;
  e.end_seconds = end;
  e.is_phase = is_phase;
  return e;
}

SpanEvent HostSpanEvent(std::string name, int lane, double start, double end) {
  SpanEvent e;
  e.name = std::move(name);
  e.origin = SpanEvent::Origin::kHost;
  e.lane = lane;
  e.start_seconds = start;
  e.end_seconds = end;
  return e;
}

TEST(TraceRecorderTest, BusyTimeSumsLeafDeviceSpansOnly) {
  TraceRecorder trace;
  trace.RecordSpan(DeviceSpan(0, 0.0, 1.0));
  trace.RecordSpan(DeviceSpan(0, 1.0, 1.5));
  trace.RecordSpan(DeviceSpan(2, 0.0, 0.25));
  // Phase envelopes and host spans must not count as stream busy time.
  trace.RecordSpan(DeviceSpan(0, 0.0, 10.0, /*is_phase=*/true));
  trace.RecordSpan(HostSpanEvent("queue_wait", 0, 0.0, 100.0));

  const std::vector<double> busy = trace.BusyTimePerStream();
  ASSERT_EQ(busy.size(), 3u);
  EXPECT_DOUBLE_EQ(busy[0], 1.5);
  EXPECT_DOUBLE_EQ(busy[1], 0.0);
  EXPECT_DOUBLE_EQ(busy[2], 0.25);
}

TEST(TraceRecorderTest, ChromeJsonMergesStreamAndWorkerRows) {
  TraceRecorder trace;
  trace.RecordSpan(DeviceSpan(0, 0.0, 1e-3));
  trace.RecordSpan(DeviceSpan(2, 0.0, 2e-3));
  trace.RecordSpan(HostSpanEvent("predict batch=4", 1, 0.0, 5e-3));

  const std::string json = trace.ToChromeJson();
  // Both clock domains present, with named rows.
  EXPECT_NE(json.find("\"simulated device (sim time)\""), std::string::npos);
  EXPECT_NE(json.find("\"host (wall time)\""), std::string::npos);
  EXPECT_NE(json.find("\"stream 0\""), std::string::npos);
  EXPECT_NE(json.find("\"stream 2\""), std::string::npos);
  EXPECT_NE(json.find("\"worker 1\""), std::string::npos);
  EXPECT_NE(json.find("\"predict batch=4\""), std::string::npos);
  // Device events land in pid 0, host events in pid 1.
  EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":1"), std::string::npos);

  // Well-formed: starts/ends as one JSON object, brackets balance.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  long depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceRecorderTest, UnnamedLeafSpansGetDefaultNames) {
  TraceRecorder trace;
  SpanEvent kernel = DeviceSpan(0, 0.0, 1e-3);
  trace.RecordSpan(kernel);
  SpanEvent transfer = DeviceSpan(0, 1e-3, 2e-3);
  transfer.is_transfer = true;
  trace.RecordSpan(transfer);
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"name\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"transfer\""), std::string::npos);
}

TEST(TraceRecorderTest, ExecutorLaneBaseOffsetsStreams) {
  TraceRecorder trace;
  SimExecutor a(ExecutorModel::TeslaP100());
  SimExecutor b(ExecutorModel::TeslaP100());
  a.SetSpanRecorder(&trace, /*lane_base=*/0);
  b.SetSpanRecorder(&trace, /*lane_base=*/16);

  TaskCost cost;
  cost.flops = 1e9;
  a.Charge(kDefaultStream, cost);
  b.Charge(kDefaultStream, cost);

  const std::vector<double> busy = trace.BusyTimePerStream();
  ASSERT_EQ(busy.size(), 17u);
  EXPECT_GT(busy[0], 0.0);
  EXPECT_GT(busy[16], 0.0);
  EXPECT_DOUBLE_EQ(busy[0], busy[16]);  // identical work on identical models
}

// A long-lived executor keeps creating streams; a positive lane width wraps
// them so the trace rows stay inside the executor's assigned band.
TEST(TraceRecorderTest, LaneWidthWrapsStreamsIntoBand) {
  TraceRecorder trace;
  SimExecutor exec(ExecutorModel::TeslaP100());
  exec.SetSpanRecorder(&trace, /*lane_base=*/16, /*lane_width=*/4);

  StreamId last = kDefaultStream;
  for (int i = 0; i < 6; ++i) last = exec.CreateStream(0.25);
  ASSERT_GE(last, 4);  // stream id past the band width

  EXPECT_EQ(exec.SpanLane(kDefaultStream), 16);
  EXPECT_EQ(exec.SpanLane(last), 16 + last % 4);

  TaskCost cost;
  cost.flops = 1e9;
  exec.Charge(last, cost);
  ASSERT_EQ(trace.size(), 1u);
  // events() returns a copy, so keep the span by value.
  const SpanEvent span = trace.events().back();
  EXPECT_GE(span.lane, 16);
  EXPECT_LT(span.lane, 20);
}

// The trainer's phase spans (data_load, smo, sigmoid) take the executor's
// lane mapping like its leaf spans, so a pair group with more streams than
// the band is wide stays inside the band too.
TEST(TraceRecorderTest, PhaseSpansWrapIntoBand) {
  const Dataset data =
      ValueOrDie(testing::MakeMulticlassBlobs(5, 12, 4, 2.0, 31));
  SimExecutor exec(ExecutorModel::TeslaP100());
  TraceRecorder trace;
  exec.SetSpanRecorder(&trace, /*lane_base=*/16, /*lane_width=*/4);
  MpTrainOptions options;
  options.max_concurrent_svms = 10;  // the 10 pairs in one group
  ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));

  int phases = 0;
  int outside = 0;
  int max_phase_lane = -1;
  for (const SpanEvent& e : trace.events()) {
    if (e.lane < 16 || e.lane >= 20) ++outside;
    if (!e.is_phase) continue;
    ++phases;
    max_phase_lane = std::max(max_phase_lane, e.lane);
  }
  EXPECT_GT(phases, 20);  // data_load plus smo and sigmoid per pair
  EXPECT_EQ(max_phase_lane, 19);
  EXPECT_EQ(outside, 0);
}

// Regression guard for the deleted ExecutionTrace shim (PR 2's deprecation,
// removed in PR 5): the public API docs must describe SetSpanRecorder /
// TraceRecorder only, never the old header or class.
TEST(TraceShimRemovalTest, DocsDoNotMentionTheDeletedShim) {
  for (const char* rel : {"docs/api.md", "docs/observability.md",
                          "docs/cost_model.md", "README.md"}) {
    const std::string path = std::string(GMPSVM_REPO_DIR "/") + rel;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    EXPECT_EQ(text.find("ExecutionTrace"), std::string::npos) << rel;
    EXPECT_EQ(text.find("device/trace.h"), std::string::npos) << rel;
  }
}

}  // namespace
}  // namespace gmpsvm
