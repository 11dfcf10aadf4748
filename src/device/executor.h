// SimExecutor: the simulated execution substrate shared by every compared
// implementation (GMP-SVM, GPU baseline, CMP-SVM, LibSVM reference, and the
// third-party-library stand-ins).
//
// Usage model, mirroring CUDA:
//   * CreateStream(sm_share) creates a logical stream that owns a static
//     fraction of the device's compute units (the paper's MP-SVM level caps
//     the SMs each concurrently-trained binary SVM may use; this models that
//     directly). ScopedStreams creates a call's or a pair group's streams
//     and retires them when that scope ends, so a long-lived executor (a
//     serve worker's) holds only the streams in use.
//   * Charge(stream, cost) advances the stream's simulated timeline by a
//     duration derived from `cost` under the executor's ExecutorModel, for
//     work the caller has just run on the host (results are real). Tasks on
//     different streams overlap in simulated time; tasks on one stream are
//     ordered.
//   * Transfer(stream, bytes, dir) charges PCIe time (free on CPU models).
//   * Allocate(bytes) returns an RAII token counted against the device-memory
//     budget; exceeding the budget fails, which is what forces the tiled /
//     batched designs of Section 3.
//   * SynchronizeAll() joins every stream: simulated now() becomes the
//     makespan. ElapsedSeconds() between two sync points is what benchmarks
//     report as "sim-sec".
//
// Determinism: no wall clocks feed the accounting. Simulated time is charged
// in submission order regardless of how task bodies execute on the host.
// When ExecutorModel::host_threads > 1 the executor owns a ThreadPool and
// HostParallelFor() runs bodies across real threads — but
// only over statically-chunked, disjoint-write index ranges, so every numeric
// output, counter, and simulated timestamp is byte-identical for any thread
// count (see docs/performance.md for the full determinism rules).

#ifndef GMPSVM_DEVICE_EXECUTOR_H_
#define GMPSVM_DEVICE_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "device/counters.h"
#include "device/sim_model.h"
#include "obs/span.h"

namespace gmpsvm {

class ExecEventLog;
class ThreadPool;

namespace fault {
class FaultInjector;
}  // namespace fault

// Cost of one submitted task, in units of actual work performed by the task
// body. Callers compute these from the real data they process.
struct TaskCost {
  double flops = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  // Number of independent work items (e.g. output elements). Determines how
  // many compute units the task can occupy.
  int64_t parallel_items = 1;
};

// Cost of one parallel reduction or elementwise pass over `n` values, each
// item doing `flops_per_item` flops and reading `bytes_per_item` bytes.
inline TaskCost VectorPassCost(int64_t n, double flops_per_item,
                               double bytes_per_item) {
  TaskCost cost;
  cost.parallel_items = n;
  cost.flops = flops_per_item * static_cast<double>(n);
  cost.bytes_read = bytes_per_item * static_cast<double>(n);
  return cost;
}

enum class TransferDirection { kHostToDevice, kDeviceToHost };

class SimExecutor;

// RAII token for simulated device memory. Releases its reservation when
// destroyed. Movable, not copyable. The executor must outlive the allocation.
class DeviceAllocation {
 public:
  DeviceAllocation() = default;
  DeviceAllocation(DeviceAllocation&& other) noexcept { *this = std::move(other); }
  DeviceAllocation& operator=(DeviceAllocation&& other) noexcept;
  ~DeviceAllocation();

  DeviceAllocation(const DeviceAllocation&) = delete;
  DeviceAllocation& operator=(const DeviceAllocation&) = delete;

  size_t bytes() const { return bytes_; }
  bool valid() const { return executor_ != nullptr; }

  // Releases the reservation early.
  void Release();

 private:
  friend class SimExecutor;
  DeviceAllocation(SimExecutor* executor, size_t bytes)
      : executor_(executor), bytes_(bytes) {}

  SimExecutor* executor_ = nullptr;
  size_t bytes_ = 0;
};

// Identifies a stream created on a SimExecutor. Stream 0 (kDefaultStream)
// always exists and owns the whole device.
using StreamId = int;
inline constexpr StreamId kDefaultStream = 0;

class SimExecutor {
 public:
  explicit SimExecutor(ExecutorModel model);
  SimExecutor(SimExecutor&& other) noexcept;
  SimExecutor& operator=(SimExecutor&& other) noexcept;
  ~SimExecutor();

  const ExecutorModel& model() const { return model_; }

  // Creates a stream owning `unit_share` of the compute units (clamped to
  // (0, 1]). A stream made this way lives as long as the executor; streams
  // made for one call or one group come from ScopedStreams instead.
  StreamId CreateStream(double unit_share);

  // Number of live streams including the default stream.
  int num_streams() const { return static_cast<int>(streams_.size()); }

  // Charges `cost` to `stream`'s simulated timeline for work the caller has
  // performed.
  void Charge(StreamId stream, const TaskCost& cost);

  // Charges a host<->device transfer on `stream`.
  void Transfer(StreamId stream, double bytes, TransferDirection dir);

  // Advances `stream`'s timeline by `seconds` without doing work — used for
  // simulated retry backoff. Records a phase span named `label` when a span
  // recorder is attached and `label` is non-null.
  void AdvanceStream(StreamId stream, double seconds,
                     const char* label = nullptr);

  // Makes `stream` wait (in simulated time) until `other` has drained, i.e.
  // a cross-stream event dependency.
  void StreamWait(StreamId stream, StreamId other);

  // Joins all streams: after this, NowSeconds() is the makespan.
  void SynchronizeAll();

  // Simulated time: max over stream timelines, retired streams included.
  double NowSeconds() const;

  // Simulated time at which `stream` drains. Deltas of this around a section
  // attribute simulated time to pipeline phases (Figures 11/12).
  double StreamTime(StreamId stream) const {
    return streams_[static_cast<size_t>(stream)].ready_at;
  }

  // Reserves simulated device memory. Fails with kOutOfMemory past budget.
  Result<DeviceAllocation> Allocate(size_t bytes);

  // Bytes currently reserved / high-water mark.
  size_t bytes_in_use() const { return counters_.bytes_in_use; }
  size_t memory_budget() const { return model_.memory_budget_bytes; }

  ExecutorCounters& counters() { return counters_; }
  const ExecutorCounters& counters() const { return counters_; }

  // Attaches (or detaches, with nullptr) a span sink recording every charged
  // task and transfer as device-origin spans. `lane_base` offsets the lane of
  // every emitted span so that several executors (e.g. per-serve-worker
  // devices) can share one recorder without their stream rows colliding. A
  // positive `lane_width` additionally wraps stream ids into
  // [lane_base, lane_base + lane_width), which keeps a pair group wider than
  // the band inside it instead of creeping into a neighbor's. The recorder
  // must outlive its attachment.
  void SetSpanRecorder(obs::SpanRecorder* recorder, int lane_base = 0,
                       int lane_width = 0) {
    recorder_ = recorder;
    lane_base_ = lane_base;
    lane_width_ = lane_width;
  }
  obs::SpanRecorder* span_recorder() const { return recorder_; }
  int lane_base() const { return lane_base_; }

  // Attaches (or detaches, with nullptr) a fault injector. While attached,
  // Allocate may fail with kUnavailable and every Charge may suffer a
  // latency spike. The injector must outlive its attachment. Training
  // determinism is preserved because the injector itself is deterministic.
  void SetFaultInjector(fault::FaultInjector* injector) { fault_ = injector; }
  fault::FaultInjector* fault_injector() const { return fault_; }

  // The trace lane a stream's spans land on under the configured base/width.
  int SpanLane(StreamId stream) const {
    return lane_base_ + (lane_width_ > 0 ? stream % lane_width_ : stream);
  }

  // Computes the simulated duration of a task under this executor's model
  // given a static compute-unit share. Exposed for tests and the ablation
  // benches.
  double TaskDuration(const TaskCost& cost, double unit_share) const;

  // --- Host parallelism ----------------------------------------------------

  // The pool running task bodies across real threads, or nullptr when the
  // executor is single-threaded (model().host_threads <= 1 and no shared
  // pool). Created lazily; the first call must come from the thread that owns
  // the executor.
  ThreadPool* host_pool();

  // Runs `body` over [0, n): inline when no host pool is configured,
  // otherwise distributed across the pool. Bodies must write disjoint,
  // index-derived locations only (see ThreadPool::ParallelFor), which keeps
  // results byte-identical for every thread count.
  void HostParallelFor(int64_t n, int64_t min_chunk,
                       const std::function<void(int64_t, int64_t)>& body);

  // --- Fork-join accounting (see device/fork_join.h) -----------------------

  // While a log is attached, every Charge/Transfer/AdvanceStream appends a
  // replayable event to it instead of emitting spans itself (direct client
  // RecordSpan calls still reach span_recorder()). Used by satellite
  // executors in pair-parallel training; incompatible with a fault injector.
  void SetEventLog(ExecEventLog* log) { event_log_ = log; }
  ExecEventLog* event_log() const { return event_log_; }

 private:
  friend class DeviceAllocation;
  friend class ScopedStreams;
  friend SimExecutor ForkSatellite(SimExecutor* main, StreamId main_stream,
                                   ExecEventLog* log, ThreadPool* host_pool);
  void ReleaseBytes(size_t bytes);

  // Retires the newest stream, folding its timeline into retired_makespan_
  // so NowSeconds() reads what it read while the stream was live. Its id is
  // handed out again by the next CreateStream.
  void RetireStream(StreamId stream);

  struct Stream {
    double unit_share = 1.0;
    double ready_at = 0.0;  // simulated time when the stream drains
  };

  ExecutorModel model_;
  std::vector<Stream> streams_;
  // Latest drain time of any retired stream: a floor under NowSeconds().
  double retired_makespan_ = 0.0;
  ExecutorCounters counters_;
  obs::SpanRecorder* recorder_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  ExecEventLog* event_log_ = nullptr;
  int lane_base_ = 0;
  int lane_width_ = 0;
  // Owned pool (lazily created from model_.host_threads) or a borrowed one
  // (satellite executors share their parent's pool instead of spawning
  // threads per binary problem).
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* external_pool_ = nullptr;
};

// The streams of one call or one pair group: `count` streams of `unit_share`
// each, created on construction and retired, newest first, when the scope
// ends on any return path. Scopes on one executor must nest (a DCHECK holds
// the LIFO order), and the executor must outlive the scope. Retired ids are
// reused, so a trace shows one lane per concurrently live stream, not one
// per stream ever made; every simulated time reads as if the streams lived
// on.
class ScopedStreams {
 public:
  ScopedStreams(SimExecutor* executor, int count, double unit_share);
  ~ScopedStreams();

  ScopedStreams(const ScopedStreams&) = delete;
  ScopedStreams& operator=(const ScopedStreams&) = delete;

  const std::vector<StreamId>& ids() const { return ids_; }

 private:
  SimExecutor* executor_;
  std::vector<StreamId> ids_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_DEVICE_EXECUTOR_H_
