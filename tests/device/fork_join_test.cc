// Fork-join accounting: a satellite executor's recorded event log, replayed
// onto the main executor, must reproduce a direct serial run bit for bit —
// stream timeline, counters, and the span stream.

#include "device/fork_join.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/thread_pool.h"
#include "device/executor.h"
#include "obs/span.h"

namespace gmpsvm {
namespace {

TaskCost Cost(double flops, double read, double written, int64_t items) {
  TaskCost c;
  c.flops = flops;
  c.bytes_read = read;
  c.bytes_written = written;
  c.parallel_items = items;
  return c;
}

// The accounting sequence one binary problem might charge. Mirrors what the
// solver does: task charges, a transfer, a backoff advance, and a client
// phase span wrapping the lot.
void ChargeWorkload(SimExecutor* exec, StreamId stream) {
  const double t0 = exec->StreamTime(stream);
  exec->Charge(stream, Cost(1e9, 4e6, 1e6, 4096));
  exec->Transfer(stream, 2.5e6, TransferDirection::kHostToDevice);
  exec->Charge(stream, Cost(3e8, 1e6, 5e5, 512));
  exec->AdvanceStream(stream, 1.5e-4, "backoff");
  exec->Transfer(stream, 9e5, TransferDirection::kDeviceToHost);
  if (exec->span_recorder() != nullptr) {
    obs::SpanEvent span;
    span.name = "phase";
    span.origin = obs::SpanEvent::Origin::kDevice;
    span.lane = exec->lane_base() + stream;
    span.start_seconds = t0;
    span.end_seconds = exec->StreamTime(stream);
    span.is_phase = true;
    exec->span_recorder()->RecordSpan(span);
  }
}

void ExpectSameSpans(const obs::TraceRecorder& a, const obs::TraceRecorder& b) {
  const auto ea = a.events();
  const auto eb = b.events();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].name, eb[i].name) << i;
    EXPECT_EQ(ea[i].lane, eb[i].lane) << i;
    EXPECT_EQ(ea[i].origin, eb[i].origin) << i;
    EXPECT_EQ(ea[i].start_seconds, eb[i].start_seconds) << i;
    EXPECT_EQ(ea[i].end_seconds, eb[i].end_seconds) << i;
    EXPECT_EQ(ea[i].flops, eb[i].flops) << i;
    EXPECT_EQ(ea[i].bytes, eb[i].bytes) << i;
    EXPECT_EQ(ea[i].is_transfer, eb[i].is_transfer) << i;
    EXPECT_EQ(ea[i].is_phase, eb[i].is_phase) << i;
  }
}

void ExpectSameCounters(const ExecutorCounters& a, const ExecutorCounters& b) {
  EXPECT_EQ(a.launches, b.launches);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.bytes_h2d, b.bytes_h2d);
  EXPECT_EQ(a.bytes_d2h, b.bytes_d2h);
  EXPECT_EQ(a.kernel_values_computed, b.kernel_values_computed);
  EXPECT_EQ(a.kernel_values_reused, b.kernel_values_reused);
  EXPECT_EQ(a.allocation_failures, b.allocation_failures);
  EXPECT_EQ(a.peak_bytes_in_use, b.peak_bytes_in_use);
}

TEST(ForkJoinTest, ReplayMatchesDirectSerialRun) {
  obs::TraceRecorder serial_trace, forked_trace;

  SimExecutor serial(ExecutorModel::TeslaP100());
  serial.SetSpanRecorder(&serial_trace);
  ChargeWorkload(&serial, kDefaultStream);

  SimExecutor main(ExecutorModel::TeslaP100());
  main.SetSpanRecorder(&forked_trace);
  ExecEventLog log;
  const double base = main.StreamTime(kDefaultStream);
  SimExecutor satellite = ForkSatellite(&main, kDefaultStream, &log, nullptr);
  ChargeWorkload(&satellite, kDefaultStream);
  JoinSatellite(log, satellite, base, &main, kDefaultStream);

  EXPECT_EQ(main.StreamTime(kDefaultStream), serial.StreamTime(kDefaultStream));
  EXPECT_EQ(main.NowSeconds(), serial.NowSeconds());
  ExpectSameCounters(main.counters(), serial.counters());
  ExpectSameSpans(forked_trace, serial_trace);
}

TEST(ForkJoinTest, ReplayOnNonDefaultStreamShiftsPhaseSpans) {
  // Fork from a secondary stream whose timeline has already advanced; the
  // satellite starts at that position, so replayed spans land exactly where a
  // serial run would put them (offset 0 at join).
  obs::TraceRecorder serial_trace, forked_trace;

  SimExecutor serial(ExecutorModel::TeslaP100());
  serial.SetSpanRecorder(&serial_trace);
  const StreamId ss = serial.CreateStream(0.25);
  serial.AdvanceStream(ss, 2.0e-3);
  const double serial_fork_point = serial.StreamTime(ss);
  ChargeWorkload(&serial, ss);

  SimExecutor main(ExecutorModel::TeslaP100());
  main.SetSpanRecorder(&forked_trace);
  const StreamId ms = main.CreateStream(0.25);
  main.AdvanceStream(ms, 2.0e-3);
  ExecEventLog log;
  const double base = main.StreamTime(ms);
  SimExecutor satellite = ForkSatellite(&main, ms, &log, nullptr);
  // The satellite's single stream mirrors the source stream's share and
  // position, so durations (which depend on unit_share) match too.
  EXPECT_EQ(satellite.StreamTime(kDefaultStream), serial_fork_point);
  ChargeWorkload(&satellite, kDefaultStream);
  JoinSatellite(log, satellite, base, &main, ms);

  EXPECT_EQ(main.StreamTime(ms), serial.StreamTime(ss));
  ExpectSameCounters(main.counters(), serial.counters());
  ExpectSameSpans(forked_trace, serial_trace);
}

TEST(ForkJoinTest, JoinMergesSatelliteLocalCounters) {
  SimExecutor main(ExecutorModel::TeslaP100());
  ExecEventLog log;
  SimExecutor satellite = ForkSatellite(&main, kDefaultStream, &log, nullptr);
  // Counters the replay cannot reconstruct are carried over additively
  // (kernel values, allocation failures) or by max (peak memory).
  satellite.counters().kernel_values_computed += 123;
  satellite.counters().kernel_values_reused += 45;
  satellite.counters().allocation_failures += 2;
  {
    auto alloc = ValueOrDie(satellite.Allocate(1 << 20));
    EXPECT_GE(satellite.counters().peak_bytes_in_use, size_t{1} << 20);
  }
  JoinSatellite(log, satellite, 0.0, &main, kDefaultStream);
  EXPECT_EQ(main.counters().kernel_values_computed, 123);
  EXPECT_EQ(main.counters().kernel_values_reused, 45);
  EXPECT_EQ(main.counters().allocation_failures, 2);
  EXPECT_GE(main.counters().peak_bytes_in_use, size_t{1} << 20);
}

TEST(ForkJoinTest, SatelliteSeesMainMemoryLedger) {
  // Allocation decisions on the satellite must match what a serial run on the
  // main executor would see: the live bytes_in_use is inherited at fork.
  SimExecutor main(ExecutorModel::TeslaP100());
  auto held = ValueOrDie(main.Allocate(8 << 20));
  ExecEventLog log;
  SimExecutor satellite = ForkSatellite(&main, kDefaultStream, &log, nullptr);
  EXPECT_EQ(satellite.bytes_in_use(), main.bytes_in_use());
}

TEST(HostParallelForTest, ThreadCountDoesNotChangeOutputOrSimTime) {
  constexpr int64_t kN = 10000;
  auto run = [&](int host_threads, std::vector<double>* out) -> double {
    ExecutorModel model = ExecutorModel::TeslaP100();
    model.host_threads = host_threads;
    SimExecutor exec(std::move(model));
    out->assign(static_cast<size_t>(kN), 0.0);
    exec.HostParallelFor(
        kN, /*min_chunk=*/64, [out](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            (*out)[static_cast<size_t>(i)] =
                static_cast<double>(i) * 1.000000001 + 0.5;
          }
        });
    exec.Charge(kDefaultStream, VectorPassCost(kN, /*flops_per_item=*/10.0,
                                               /*bytes_per_item=*/16.0));
    exec.SynchronizeAll();
    return exec.NowSeconds();
  };
  std::vector<double> serial_out, mt_out;
  const double serial_time = run(1, &serial_out);
  const double mt_time = run(4, &mt_out);
  EXPECT_EQ(serial_time, mt_time);
  ASSERT_EQ(serial_out.size(), mt_out.size());
  EXPECT_EQ(0, std::memcmp(serial_out.data(), mt_out.data(),
                           serial_out.size() * sizeof(double)));
}

TEST(HostParallelForTest, BorrowedPoolRunsBodies) {
  // Satellites borrow the caller's pool rather than spawning threads; the
  // fork wiring must hand the pool through to HostParallelFor.
  ThreadPool pool(3);
  SimExecutor main(ExecutorModel::TeslaP100());
  ExecEventLog log;
  SimExecutor satellite = ForkSatellite(&main, kDefaultStream, &log, &pool);
  EXPECT_EQ(satellite.host_pool(), &pool);
  std::vector<double> out(5000, 0.0);
  const auto n = static_cast<int64_t>(out.size());
  satellite.HostParallelFor(
      n, /*min_chunk=*/16, [&out](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          out[static_cast<size_t>(i)] = static_cast<double>(i);
        }
      });
  satellite.Charge(kDefaultStream, VectorPassCost(n, /*flops_per_item=*/1.0,
                                                  /*bytes_per_item=*/8.0));
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<double>(i));
  }
}

}  // namespace
}  // namespace gmpsvm
