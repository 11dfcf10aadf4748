#include "device/executor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "device/fork_join.h"
#include "fault/fault_injector.h"

namespace gmpsvm {

DeviceAllocation& DeviceAllocation::operator=(DeviceAllocation&& other) noexcept {
  if (this != &other) {
    Release();
    executor_ = other.executor_;
    bytes_ = other.bytes_;
    other.executor_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

DeviceAllocation::~DeviceAllocation() { Release(); }

void DeviceAllocation::Release() {
  if (executor_ != nullptr) {
    executor_->ReleaseBytes(bytes_);
    executor_ = nullptr;
    bytes_ = 0;
  }
}

SimExecutor::SimExecutor(ExecutorModel model) : model_(std::move(model)) {
  streams_.push_back(Stream{/*unit_share=*/1.0, /*ready_at=*/0.0});
}

SimExecutor::SimExecutor(SimExecutor&& other) noexcept = default;
SimExecutor& SimExecutor::operator=(SimExecutor&& other) noexcept = default;
SimExecutor::~SimExecutor() = default;

ThreadPool* SimExecutor::host_pool() {
  if (external_pool_ != nullptr) return external_pool_;
  if (owned_pool_ == nullptr && model_.host_threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(model_.host_threads);
  }
  return owned_pool_.get();
}

void SimExecutor::HostParallelFor(
    int64_t n, int64_t min_chunk,
    const std::function<void(int64_t, int64_t)>& body) {
  if (n <= 0) return;
  ThreadPool* pool = host_pool();
  if (pool == nullptr || pool->num_threads() <= 1) {
    body(0, n);
    return;
  }
  pool->ParallelFor(n, body, min_chunk);
}

StreamId SimExecutor::CreateStream(double unit_share) {
  unit_share = std::clamp(unit_share, 1.0 / model_.compute_units, 1.0);
  // New streams start at the current makespan so work submitted to them
  // cannot begin "in the past" relative to already-submitted work.
  streams_.push_back(Stream{unit_share, NowSeconds()});
  return static_cast<StreamId>(streams_.size() - 1);
}

void SimExecutor::RetireStream([[maybe_unused]] StreamId stream) {
  GMP_DCHECK(stream != kDefaultStream && stream == num_streams() - 1);
  retired_makespan_ = std::max(retired_makespan_, streams_.back().ready_at);
  streams_.pop_back();
}

double SimExecutor::TaskDuration(const TaskCost& cost, double unit_share) const {
  const double allocated_units = std::max(1.0, model_.compute_units * unit_share);
  // A task with few independent items cannot occupy all allocated units.
  const double waves =
      std::ceil(static_cast<double>(std::max<int64_t>(1, cost.parallel_items)) /
                static_cast<double>(model_.block_size));
  const double usable_units = std::min(allocated_units, waves);

  const double compute_time =
      cost.flops / (model_.flops_per_unit * usable_units);
  const double bw_share = std::max(model_.min_bw_fraction,
                                   usable_units / model_.compute_units);
  const double mem_time =
      (cost.bytes_read + cost.bytes_written) / (model_.mem_bandwidth * bw_share);
  // Roofline: the task is bound by the slower of compute and memory.
  return model_.launch_overhead_sec + std::max(compute_time, mem_time);
}

void SimExecutor::Charge(StreamId stream, const TaskCost& cost) {
  GMP_DCHECK(stream >= 0 && stream < num_streams());
  Stream& s = streams_[static_cast<size_t>(stream)];
  const double start = s.ready_at;
  s.ready_at += TaskDuration(cost, s.unit_share);
  if (fault_ != nullptr) {
    const double spike = fault_->MaybeLatencySpike();
    if (spike > 0.0) {
      const double spike_start = s.ready_at;
      s.ready_at += spike;
      if (recorder_ != nullptr) {
        obs::SpanEvent span;
        span.name = "fault_latency_spike";
        span.origin = obs::SpanEvent::Origin::kDevice;
        span.lane = SpanLane(stream);
        span.start_seconds = spike_start;
        span.end_seconds = s.ready_at;
        span.is_phase = true;  // excluded from busy-time math
        recorder_->RecordSpan(span);
      }
    }
  }
  ++counters_.launches;
  counters_.flops += cost.flops;
  counters_.bytes_read += cost.bytes_read;
  counters_.bytes_written += cost.bytes_written;
  if (event_log_ != nullptr) {
    // Satellite mode: the charge is captured for ordered replay on the main
    // executor, which re-emits the leaf span there.
    ExecEvent e;
    e.kind = ExecEvent::Kind::kCharge;
    e.cost = cost;
    event_log_->Append(std::move(e));
  } else if (recorder_ != nullptr) {
    obs::SpanEvent span;
    span.origin = obs::SpanEvent::Origin::kDevice;
    span.lane = SpanLane(stream);
    span.start_seconds = start;
    span.end_seconds = s.ready_at;
    span.flops = cost.flops;
    span.bytes = cost.bytes_read + cost.bytes_written;
    recorder_->RecordSpan(span);
  }
}

void SimExecutor::Transfer(StreamId stream, double bytes, TransferDirection dir) {
  GMP_DCHECK(stream >= 0 && stream < num_streams());
  if (dir == TransferDirection::kHostToDevice) {
    counters_.bytes_h2d += bytes;
  } else {
    counters_.bytes_d2h += bytes;
  }
  if (model_.transfers_are_free) {
    if (event_log_ != nullptr) {
      ExecEvent e;
      e.kind = ExecEvent::Kind::kTransfer;
      e.bytes = bytes;
      e.dir = dir;
      event_log_->Append(std::move(e));
    }
    return;
  }
  Stream& s = streams_[static_cast<size_t>(stream)];
  const double start = s.ready_at;
  s.ready_at += bytes / model_.transfer_bandwidth;
  if (event_log_ != nullptr) {
    ExecEvent e;
    e.kind = ExecEvent::Kind::kTransfer;
    e.bytes = bytes;
    e.dir = dir;
    event_log_->Append(std::move(e));
  } else if (recorder_ != nullptr) {
    obs::SpanEvent span;
    span.origin = obs::SpanEvent::Origin::kDevice;
    span.lane = SpanLane(stream);
    span.start_seconds = start;
    span.end_seconds = s.ready_at;
    span.bytes = bytes;
    span.is_transfer = true;
    recorder_->RecordSpan(span);
  }
}

void SimExecutor::AdvanceStream(StreamId stream, double seconds,
                                const char* label) {
  GMP_DCHECK(stream >= 0 && stream < num_streams());
  if (seconds <= 0.0) return;
  Stream& s = streams_[static_cast<size_t>(stream)];
  const double start = s.ready_at;
  s.ready_at += seconds;
  if (event_log_ != nullptr) {
    ExecEvent e;
    e.kind = ExecEvent::Kind::kAdvance;
    e.seconds = seconds;
    if (label != nullptr) e.label = label;
    event_log_->Append(std::move(e));
    return;
  }
  if (recorder_ != nullptr && label != nullptr) {
    obs::SpanEvent span;
    span.name = label;
    span.origin = obs::SpanEvent::Origin::kDevice;
    span.lane = SpanLane(stream);
    span.start_seconds = start;
    span.end_seconds = s.ready_at;
    span.is_phase = true;
    recorder_->RecordSpan(span);
  }
}

void SimExecutor::StreamWait(StreamId stream, StreamId other) {
  GMP_DCHECK(stream >= 0 && stream < num_streams());
  GMP_DCHECK(other >= 0 && other < num_streams());
  Stream& s = streams_[static_cast<size_t>(stream)];
  s.ready_at = std::max(s.ready_at, streams_[static_cast<size_t>(other)].ready_at);
}

void SimExecutor::SynchronizeAll() {
  const double makespan = NowSeconds();
  for (Stream& s : streams_) s.ready_at = makespan;
}

double SimExecutor::NowSeconds() const {
  double makespan = retired_makespan_;
  for (const Stream& s : streams_) makespan = std::max(makespan, s.ready_at);
  return makespan;
}

Result<DeviceAllocation> SimExecutor::Allocate(size_t bytes) {
  if (fault_ != nullptr && fault_->ShouldInject(fault::Site::kDeviceAlloc)) {
    ++counters_.allocation_failures;
    return Status::Unavailable(StrPrintf(
        "injected allocation failure (%s)",
        HumanBytes(static_cast<double>(bytes)).c_str()));
  }
  if (counters_.bytes_in_use + bytes > model_.memory_budget_bytes) {
    ++counters_.allocation_failures;
    return Status::OutOfMemory(StrPrintf(
        "allocation of %s exceeds device budget (%s in use of %s)",
        HumanBytes(static_cast<double>(bytes)).c_str(),
        HumanBytes(static_cast<double>(counters_.bytes_in_use)).c_str(),
        HumanBytes(static_cast<double>(model_.memory_budget_bytes)).c_str()));
  }
  counters_.bytes_in_use += bytes;
  counters_.peak_bytes_in_use =
      std::max(counters_.peak_bytes_in_use, counters_.bytes_in_use);
  return DeviceAllocation(this, bytes);
}

void SimExecutor::ReleaseBytes(size_t bytes) {
  GMP_DCHECK(counters_.bytes_in_use >= bytes);
  counters_.bytes_in_use -= bytes;
}

ScopedStreams::ScopedStreams(SimExecutor* executor, int count,
                             double unit_share)
    : executor_(executor) {
  ids_.reserve(static_cast<size_t>(std::max(0, count)));
  for (int i = 0; i < count; ++i) {
    ids_.push_back(executor_->CreateStream(unit_share));
  }
}

ScopedStreams::~ScopedStreams() {
  for (auto it = ids_.rbegin(); it != ids_.rend(); ++it) {
    executor_->RetireStream(*it);
  }
}

}  // namespace gmpsvm
