#include "device/executor.h"

#include <gtest/gtest.h>

#include <vector>

#include "device/sim_model.h"
#include "fault/fault_injector.h"

namespace gmpsvm {
namespace {

ExecutorModel SimpleModel() {
  ExecutorModel m;
  m.name = "test";
  m.compute_units = 4;
  m.flops_per_unit = 100.0;   // 100 flops/sec per unit
  m.mem_bandwidth = 1000.0;   // bytes/sec
  m.min_bw_fraction = 0.25;
  m.launch_overhead_sec = 1.0;
  m.transfer_bandwidth = 10.0;
  m.transfers_are_free = false;
  m.memory_budget_bytes = 1000;
  m.block_size = 1;
  return m;
}

TEST(SimExecutorTest, StartsAtTimeZero) {
  SimExecutor exec(SimpleModel());
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 0.0);
}

TEST(SimExecutorTest, ChargeAdvancesClock) {
  SimExecutor exec(SimpleModel());
  TaskCost cost;
  cost.flops = 400.0;  // 400 flops / (100 f/s * 4 units) = 1s compute
  cost.parallel_items = 100;
  exec.Charge(kDefaultStream, cost);
  // 1s launch overhead + 1s compute.
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 2.0);
  EXPECT_EQ(exec.counters().launches, 1);
  EXPECT_DOUBLE_EQ(exec.counters().flops, 400.0);
}

TEST(SimExecutorTest, RooflineTakesMaxOfComputeAndMemory) {
  SimExecutor exec(SimpleModel());
  TaskCost cost;
  cost.flops = 4.0;          // compute: 0.01 s on 4 units
  cost.bytes_read = 2000.0;  // memory: 2000/1000 = 2 s at full bandwidth
  cost.parallel_items = 100;
  exec.Charge(kDefaultStream, cost);
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 1.0 + 2.0);
}

TEST(SimExecutorTest, FewParallelItemsUnderutilize) {
  SimExecutor exec(SimpleModel());
  // One item can use only one of the 4 units: 400/100 = 4s.
  TaskCost cost;
  cost.flops = 400.0;
  cost.parallel_items = 1;
  exec.Charge(kDefaultStream, cost);
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 1.0 + 4.0);
}

TEST(SimExecutorTest, StreamsOverlapInSimulatedTime) {
  SimExecutor exec(SimpleModel());
  StreamId s1 = exec.CreateStream(0.5);  // 2 units each
  StreamId s2 = exec.CreateStream(0.5);
  TaskCost cost;
  cost.flops = 200.0;  // on 2 units: 1s compute
  cost.parallel_items = 100;
  exec.Charge(s1, cost);
  exec.Charge(s2, cost);
  // Both streams finish at 2.0 (overlap), not 4.0 (serial).
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 2.0);
}

TEST(SimExecutorTest, SequentialTasksOnOneStreamAccumulate) {
  SimExecutor exec(SimpleModel());
  TaskCost cost;
  cost.flops = 400.0;
  cost.parallel_items = 100;
  exec.Charge(kDefaultStream, cost);
  exec.Charge(kDefaultStream, cost);
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 4.0);
}

TEST(SimExecutorTest, ConcurrencyWinsWhenTasksUnderutilize) {
  // The MP-SVM-level claim: two small tasks run faster on two half-device
  // streams than serially on the whole device, because neither can use more
  // than one unit anyway.
  TaskCost small;
  small.flops = 100.0;
  small.parallel_items = 1;  // can occupy only 1 unit

  SimExecutor serial(SimpleModel());
  serial.Charge(kDefaultStream, small);
  serial.Charge(kDefaultStream, small);
  const double serial_time = serial.NowSeconds();

  SimExecutor concurrent(SimpleModel());
  StreamId s1 = concurrent.CreateStream(0.5);
  StreamId s2 = concurrent.CreateStream(0.5);
  concurrent.Charge(s1, small);
  concurrent.Charge(s2, small);
  const double concurrent_time = concurrent.NowSeconds();

  EXPECT_LT(concurrent_time, serial_time);
  EXPECT_DOUBLE_EQ(concurrent_time, serial_time / 2.0);
}

TEST(SimExecutorTest, NewStreamStartsAtCurrentMakespan) {
  SimExecutor exec(SimpleModel());
  TaskCost cost;
  cost.flops = 400.0;
  cost.parallel_items = 100;
  exec.Charge(kDefaultStream, cost);  // makespan 2.0
  StreamId s = exec.CreateStream(1.0);
  exec.Charge(s, cost);
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 4.0);  // not 2.0
}

TEST(SimExecutorTest, ScopedStreamsRetireWithoutMovingTheClock) {
  SimExecutor exec(SimpleModel());
  TaskCost cost;
  cost.flops = 200.0;
  cost.parallel_items = 100;
  {
    const ScopedStreams outer(&exec, 2, 0.5);
    ASSERT_EQ(outer.ids(), (std::vector<StreamId>{1, 2}));
    exec.Charge(outer.ids()[1], cost);  // 2 units: busy until 2.0
    {
      const ScopedStreams inner(&exec, 1, 1.0);
      EXPECT_EQ(inner.ids()[0], 3);
      EXPECT_DOUBLE_EQ(exec.StreamTime(inner.ids()[0]), 2.0);
      exec.Charge(inner.ids()[0], cost);  // 4 units: busy until 3.5
    }
    EXPECT_EQ(exec.num_streams(), 3);
    EXPECT_DOUBLE_EQ(exec.NowSeconds(), 3.5);
  }
  EXPECT_EQ(exec.num_streams(), 1);
  // The retired streams still bound the makespan, and their ids are reused
  // by streams that start there.
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 3.5);
  EXPECT_DOUBLE_EQ(exec.StreamTime(kDefaultStream), 0.0);
  const StreamId reused = exec.CreateStream(1.0);
  EXPECT_EQ(reused, 1);
  EXPECT_DOUBLE_EQ(exec.StreamTime(reused), 3.5);
  exec.SynchronizeAll();
  EXPECT_DOUBLE_EQ(exec.StreamTime(kDefaultStream), 3.5);
}

TEST(SimExecutorTest, StreamWaitCreatesDependency) {
  SimExecutor exec(SimpleModel());
  StreamId s1 = exec.CreateStream(1.0);
  StreamId s2 = exec.CreateStream(1.0);
  TaskCost cost;
  cost.flops = 400.0;
  cost.parallel_items = 100;
  exec.Charge(s1, cost);    // s1 busy until 2.0
  exec.StreamWait(s2, s1);  // s2 must wait for s1
  exec.Charge(s2, cost);
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 4.0);
}

TEST(SimExecutorTest, TransferChargesPcie) {
  SimExecutor exec(SimpleModel());
  exec.Transfer(kDefaultStream, 100.0, TransferDirection::kHostToDevice);
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 10.0);  // 100 B / 10 B/s
  EXPECT_DOUBLE_EQ(exec.counters().bytes_h2d, 100.0);
}

TEST(SimExecutorTest, TransfersFreeOnCpuModel) {
  ExecutorModel m = SimpleModel();
  m.transfers_are_free = true;
  SimExecutor exec(m);
  exec.Transfer(kDefaultStream, 1e9, TransferDirection::kDeviceToHost);
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(exec.counters().bytes_d2h, 1e9);
}

TEST(SimExecutorTest, AllocationBudgetEnforced) {
  SimExecutor exec(SimpleModel());  // 1000-byte budget
  auto a = exec.Allocate(600);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(exec.bytes_in_use(), 600u);

  auto b = exec.Allocate(600);
  EXPECT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsOutOfMemory());
  EXPECT_EQ(exec.counters().allocation_failures, 1);

  a->Release();
  EXPECT_EQ(exec.bytes_in_use(), 0u);
  auto c = exec.Allocate(600);
  EXPECT_TRUE(c.ok());
}

TEST(SimExecutorTest, AllocationRaiiReleasesOnDestruction) {
  SimExecutor exec(SimpleModel());
  {
    auto a = ValueOrDie(exec.Allocate(500));
    EXPECT_EQ(exec.bytes_in_use(), 500u);
  }
  EXPECT_EQ(exec.bytes_in_use(), 0u);
  EXPECT_EQ(exec.counters().peak_bytes_in_use, 500u);
}

TEST(SimExecutorTest, AllocationMoveTransfersOwnership) {
  SimExecutor exec(SimpleModel());
  auto a = ValueOrDie(exec.Allocate(300));
  DeviceAllocation b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing moved-from state
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(exec.bytes_in_use(), 300u);
  b.Release();
  EXPECT_EQ(exec.bytes_in_use(), 0u);
}

TEST(SimExecutorTest, SynchronizeAllJoinsStreams) {
  SimExecutor exec(SimpleModel());
  StreamId s1 = exec.CreateStream(1.0);
  TaskCost cost;
  cost.flops = 400.0;
  cost.parallel_items = 100;
  exec.Charge(s1, cost);
  exec.SynchronizeAll();
  // Default stream now also at makespan: serial work starts after sync.
  exec.Charge(kDefaultStream, cost);
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 4.0);
}

TEST(SimExecutorTest, BlockSizeGatesOccupancy) {
  ExecutorModel m = SimpleModel();
  m.block_size = 256;  // GPU-like
  SimExecutor exec(m);
  // 256 items = 1 block: only 1 of 4 units usable.
  TaskCost cost;
  cost.flops = 400.0;
  cost.parallel_items = 256;
  EXPECT_DOUBLE_EQ(exec.TaskDuration(cost, 1.0), 1.0 + 4.0);
  // 1024 items = 4 blocks: all 4 units usable.
  cost.parallel_items = 1024;
  EXPECT_DOUBLE_EQ(exec.TaskDuration(cost, 1.0), 1.0 + 1.0);
}

TEST(SimExecutorTest, MinBandwidthFractionFloor) {
  SimExecutor exec(SimpleModel());
  // 1 item on 4 units: usable share would be 1/4, min fraction is 0.25 — same.
  // Check a memory-bound single-item task gets the floor bandwidth.
  TaskCost cost;
  cost.bytes_read = 250.0;
  cost.parallel_items = 1;
  // bandwidth = 1000 * 0.25 = 250 B/s -> 1 s + launch 1 s.
  EXPECT_DOUBLE_EQ(exec.TaskDuration(cost, 1.0), 2.0);
}

TEST(SimExecutorTest, PresetsAreSane) {
  ExecutorModel gpu = ExecutorModel::TeslaP100();
  EXPECT_EQ(gpu.compute_units, 56);
  EXPECT_EQ(gpu.memory_budget_bytes, 12ull << 30);
  EXPECT_FALSE(gpu.transfers_are_free);

  ExecutorModel cpu1 = ExecutorModel::XeonCpu(1);
  EXPECT_DOUBLE_EQ(cpu1.compute_units, 1.0);
  EXPECT_TRUE(cpu1.transfers_are_free);

  ExecutorModel cpu40 = ExecutorModel::XeonCpu(40);
  EXPECT_GT(cpu40.compute_units, 5.0);
  EXPECT_LT(cpu40.compute_units, 20.0);

  // GPU has far more aggregate throughput than the 40-thread CPU.
  EXPECT_GT(gpu.compute_units * gpu.flops_per_unit,
            3.0 * cpu40.compute_units * cpu40.flops_per_unit);
}

TEST(SimExecutorFaultTest, InjectedAllocFailureHealsAtConsecutiveCap) {
  SimExecutor exec(SimpleModel());
  fault::FaultPlan plan;
  plan.alloc_fail_prob = 1.0;
  plan.max_consecutive_per_site = 2;
  fault::FaultInjector injector(plan);
  exec.SetFaultInjector(&injector);

  EXPECT_TRUE(exec.Allocate(100).status().IsUnavailable());
  EXPECT_TRUE(exec.Allocate(100).status().IsUnavailable());
  auto third = exec.Allocate(100);  // the cap forces this one through
  GMP_CHECK_OK(third.status());
  EXPECT_EQ(exec.bytes_in_use(), 100u);
}

TEST(SimExecutorFaultTest, LatencySpikeStallsTheStream) {
  SimExecutor exec(SimpleModel());
  fault::FaultPlan plan;
  plan.latency_spike_prob = 1.0;
  plan.latency_spike_seconds = 0.5;
  plan.max_consecutive_per_site = 0;
  fault::FaultInjector injector(plan);
  exec.SetFaultInjector(&injector);

  TaskCost cost;
  cost.flops = 400.0;
  cost.parallel_items = 100;
  exec.Charge(kDefaultStream, cost);
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 2.0 + 0.5);
}

TEST(SimExecutorFaultTest, AdvanceStreamAddsIdleSimTime) {
  SimExecutor exec(SimpleModel());
  exec.AdvanceStream(kDefaultStream, 1.5, "retry_backoff");
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 1.5);
  exec.AdvanceStream(kDefaultStream, 0.0);
  EXPECT_DOUBLE_EQ(exec.NowSeconds(), 1.5);
}

TEST(SimExecutorFaultTest, DetachingInjectorRestoresCleanBehaviour) {
  SimExecutor exec(SimpleModel());
  fault::FaultPlan plan;
  plan.alloc_fail_prob = 1.0;
  plan.max_consecutive_per_site = 0;
  fault::FaultInjector injector(plan);
  exec.SetFaultInjector(&injector);
  EXPECT_TRUE(exec.Allocate(100).status().IsUnavailable());
  exec.SetFaultInjector(nullptr);
  GMP_CHECK_OK(exec.Allocate(100).status());
}

}  // namespace
}  // namespace gmpsvm
