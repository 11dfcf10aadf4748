// Span recording: one sink for every timeline in the system.
//
// The simulated device emits per-task trace events; the serving layer used
// to time requests with ad-hoc MonotonicNow() arithmetic. This header
// generalizes both into named spans pushed at a SpanRecorder:
//
//   * device spans — simulated-time intervals on a stream lane. SimExecutor
//     emits one leaf span per charged task/transfer, and the trainers wrap
//     them in named phase spans (data_load, smo <s>v<t>, sigmoid <s>v<t>)
//     on the same lane, which trace viewers render as nesting.
//   * host spans — wall-clock intervals relative to the recorder's epoch.
//     The inference server emits per-batch queue_wait / predict / respond
//     spans on a per-worker lane.
//
// TraceRecorder collects both and exports one merged Chrome trace-event
// JSON (chrome://tracing or https://ui.perfetto.dev): process 0 holds the
// simulated-device stream rows, process 1 the wall-clock serve rows. The
// two processes tick different clocks (simulated vs. wall); rows within a
// process are mutually comparable.

#ifndef GMPSVM_OBS_SPAN_H_
#define GMPSVM_OBS_SPAN_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"

namespace gmpsvm::obs {

struct SpanEvent {
  std::string name;

  // Which timeline the interval lives on: simulated device time or host
  // wall-clock time (seconds since the recorder's epoch).
  enum class Origin { kDevice, kHost };
  Origin origin = Origin::kHost;

  // Row within the origin: device stream id (plus any lane base configured
  // on the executor) or serve-worker index.
  int lane = 0;

  double start_seconds = 0.0;
  double end_seconds = 0.0;

  // Optional work attribution, shown as args in the trace viewer.
  double flops = 0.0;
  double bytes = 0.0;
  bool is_transfer = false;

  // Phase spans are named envelopes around leaf work (a trainer's
  // "smo 0v1" around the solver's kernel launches). They are exported to
  // the trace but excluded from busy-time accounting so that per-stream
  // busy seconds keep meaning "time the stream was executing tasks".
  bool is_phase = false;
};

// Sink interface. Implementations must tolerate concurrent RecordSpan calls.
class SpanRecorder {
 public:
  virtual ~SpanRecorder() = default;
  virtual void RecordSpan(const SpanEvent& event) = 0;
};

// Thread-safe collecting recorder with Chrome/Perfetto export.
class TraceRecorder : public SpanRecorder {
 public:
  TraceRecorder() : epoch_(MonotonicNow()) {}

  void RecordSpan(const SpanEvent& event) override;

  // Wall-clock seconds since this recorder was created; the time base for
  // host spans so every thread shares one origin.
  double HostSecondsNow() const {
    return SecondsBetween(epoch_, MonotonicNow());
  }

  std::vector<SpanEvent> events() const;
  size_t size() const;

  // Total busy simulated time per device stream lane, leaf spans only
  // (phase envelopes and host spans are excluded).
  std::vector<double> BusyTimePerStream() const;

  // Merged Chrome trace-event JSON: pid 0 = simulated device (one row per
  // stream lane), pid 1 = host (one row per worker lane), microsecond
  // timestamps, with process/thread metadata records naming the rows.
  std::string ToChromeJson() const;

 private:
  MonotonicTime epoch_;
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;
};

// RAII wall-clock span: records [construction, destruction) as a host span
// on `lane`. A null recorder makes it a no-op.
class HostSpan {
 public:
  HostSpan(TraceRecorder* recorder, std::string name, int lane)
      : recorder_(recorder), name_(std::move(name)), lane_(lane),
        start_(recorder != nullptr ? recorder->HostSecondsNow() : 0.0) {}

  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

  ~HostSpan() {
    if (recorder_ == nullptr) return;
    SpanEvent event;
    event.name = std::move(name_);
    event.origin = SpanEvent::Origin::kHost;
    event.lane = lane_;
    event.start_seconds = start_;
    event.end_seconds = recorder_->HostSecondsNow();
    recorder_->RecordSpan(event);
  }

 private:
  TraceRecorder* recorder_;
  std::string name_;
  int lane_;
  double start_;
};

}  // namespace gmpsvm::obs

#endif  // GMPSVM_OBS_SPAN_H_
