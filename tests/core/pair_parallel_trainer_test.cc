// Op-level threading in training: trainers at 4 host threads, whose pairs
// run in order while each batch of kernel rows fans out across the
// executor's pool. Kept small and fast: this binary is the TSan target for
// threaded op bodies inside training (the kernel computer and the shared
// block cache under a real pool) rather than statistical coverage —
// host_determinism_test covers the {1,2,8} sweep.

#include "core/mp_trainer.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "../test_util.h"
#include "core/model_io.h"
#include "core/ova_trainer.h"
#include "fault/fault_injector.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

MpTrainOptions Options() {
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 32;
  options.batch.working_set.q = 16;
  options.max_concurrent_svms = 4;
  options.shared_cache_bytes = 64ull << 20;
  return options;
}

SimExecutor Gpu(int host_threads) {
  ExecutorModel model = ExecutorModel::TeslaP100();
  model.host_threads = host_threads;
  return SimExecutor(std::move(model));
}

TEST(PairParallelTrainerTest, GmpMatchesSerial) {
  // share_kernel_blocks off: every pair computes its own kernel rows, which
  // four worker threads split between them.
  auto data = ValueOrDie(MakeMulticlassBlobs(4, 20, 5, 2.0, 42));
  MpTrainOptions options = Options();
  options.share_kernel_blocks = false;

  SimExecutor serial_exec = Gpu(1);
  MpTrainReport serial_report;
  auto serial_model = ValueOrDie(
      GmpSvmTrainer(options).Train(data, &serial_exec, &serial_report));

  SimExecutor parallel_exec = Gpu(4);
  MpTrainReport parallel_report;
  auto parallel_model = ValueOrDie(
      GmpSvmTrainer(options).Train(data, &parallel_exec, &parallel_report));

  EXPECT_EQ(SerializeModel(parallel_model), SerializeModel(serial_model));
  EXPECT_EQ(parallel_report.sim_seconds, serial_report.sim_seconds);
  EXPECT_EQ(parallel_report.solver.iterations, serial_report.solver.iterations);
  EXPECT_EQ(parallel_exec.counters().flops, serial_exec.counters().flops);
  EXPECT_EQ(parallel_exec.counters().launches, serial_exec.counters().launches);
  EXPECT_EQ(parallel_exec.counters().kernel_values_computed,
            serial_exec.counters().kernel_values_computed);
}

TEST(PairParallelTrainerTest, GmpWithSharedCacheStaysCorrect) {
  // With the shared block cache on, threaded kernel-row bodies fill the
  // blocks the pairs share; results must still match the serial run.
  auto data = ValueOrDie(MakeMulticlassBlobs(4, 20, 5, 2.0, 42));
  SimExecutor serial_exec = Gpu(1);
  MpTrainReport serial_report;
  auto serial_model = ValueOrDie(
      GmpSvmTrainer(Options()).Train(data, &serial_exec, &serial_report));
  SimExecutor parallel_exec = Gpu(4);
  MpTrainReport parallel_report;
  auto parallel_model = ValueOrDie(
      GmpSvmTrainer(Options()).Train(data, &parallel_exec, &parallel_report));
  EXPECT_EQ(SerializeModel(parallel_model), SerializeModel(serial_model));
  EXPECT_EQ(parallel_report.sim_seconds, serial_report.sim_seconds);
}

TEST(PairParallelTrainerTest, SequentialMatchesSerial) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 24, 5, 2.0, 17));
  SimExecutor serial_exec = Gpu(1);
  MpTrainReport serial_report;
  auto serial_model = ValueOrDie(SequentialMpTrainer(Options())
                                     .Train(data, &serial_exec, &serial_report));
  SimExecutor parallel_exec = Gpu(4);
  MpTrainReport parallel_report;
  auto parallel_model =
      ValueOrDie(SequentialMpTrainer(Options())
                     .Train(data, &parallel_exec, &parallel_report));
  EXPECT_EQ(SerializeModel(parallel_model), SerializeModel(serial_model));
  EXPECT_EQ(parallel_report.sim_seconds, serial_report.sim_seconds);
  EXPECT_EQ(parallel_exec.counters().flops, serial_exec.counters().flops);
}

TEST(PairParallelTrainerTest, OvaMatchesSerial) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 20, 5, 2.0, 23));
  auto train = [&data](int threads, MpTrainReport* report) {
    SimExecutor exec = Gpu(threads);
    return ValueOrDie(OvaTrainer(Options()).Train(data, &exec, report));
  };
  MpTrainReport serial_report, parallel_report;
  OvaModel serial_model = train(1, &serial_report);
  OvaModel parallel_model = train(4, &parallel_report);
  EXPECT_EQ(parallel_report.sim_seconds, serial_report.sim_seconds);
  ASSERT_EQ(parallel_model.classes.size(), serial_model.classes.size());
  for (size_t c = 0; c < serial_model.classes.size(); ++c) {
    EXPECT_EQ(parallel_model.classes[c].bias, serial_model.classes[c].bias);
    EXPECT_EQ(parallel_model.classes[c].sigmoid.a,
              serial_model.classes[c].sigmoid.a);
    EXPECT_EQ(parallel_model.classes[c].sigmoid.b,
              serial_model.classes[c].sigmoid.b);
  }
}

TEST(PairParallelTrainerTest, ChaosStaysDeterministicAcrossThreadCounts) {
  // Fault draws follow the order of the charges, which the thread count must
  // not change: the chaotic model at 4 host threads must match the chaotic
  // model at 1 byte for byte.
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 20, 5, 2.0, 31));
  fault::FaultPlan plan = fault::FaultPlan::Chaos(5);
  plan.kernel_row_fail_prob = 0.3;

  auto run = [&](int threads) {
    MpTrainOptions options = Options();
    options.share_kernel_blocks = false;
    SimExecutor exec = Gpu(threads);
    fault::FaultInjector injector(plan);
    exec.SetFaultInjector(&injector);
    return SerializeModel(
        ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr)));
  };
  EXPECT_EQ(run(4), run(1));
}

}  // namespace
}  // namespace gmpsvm
