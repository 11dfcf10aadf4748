// Pins every pair-training path the CLI and the committed bench snapshots do
// not reach to exact recorded values: single-device Sequential, GMP and OVA
// runs at 1 and 4 host threads (one pin each: the thread count must not
// move a value), whole-pair retries and degraded pairs under fault plans, a
// sharded cluster run under chaos, clean cluster devices at 4 host threads,
// and a warm retrain under chaos.
//
// Each run reduces to named values: a hash of the model bytes, simulated
// seconds or makespan, every phase entry, the solver counters, retries,
// degraded pairs, kernel values and warm-seeded rows. Doubles compare
// bitwise (a phase total depends on the order the per-pair contributions
// are summed in), and a mismatch prints each differing value with %a plus
// the run's full value list, ready to paste if a change is meant to move
// it.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "../pins.h"
#include "../test_util.h"
#include "cluster/cluster.h"
#include "cluster/cluster_trainer.h"
#include "cluster/pair_scheduler.h"
#include "common/string_util.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"
#include "core/ova_trainer.h"
#include "fault/fault_injector.h"
#include "online/delta.h"
#include "online/warm_retrain.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::ExpectPins;
using ::gmpsvm::testing::MakeMulticlassBlobs;
using ::gmpsvm::testing::Pins;

MpTrainOptions SmallOptions() {
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 32;
  options.batch.working_set.q = 16;
  options.max_concurrent_svms = 4;
  options.shared_cache_bytes = 64ull << 20;
  return options;
}

// 4 classes: 6 pairs, packed by GMP into a group of 4 and a group of 2.
Dataset Blobs() { return ValueOrDie(MakeMulticlassBlobs(4, 18, 5, 2.5, 42)); }

// Kernel-row batches fail often enough, and the solver gives up on a batch
// after one failure (RetryOptions), so whole pairs fail and are retried.
fault::FaultPlan RetryPlan(uint64_t seed) {
  fault::FaultPlan plan = fault::FaultPlan::Chaos(seed);
  plan.kernel_row_fail_prob = 0.1;
  return plan;
}

MpTrainOptions RetryOptions() {
  MpTrainOptions options = SmallOptions();
  options.batch.max_row_batch_retries = 1;
  return options;
}

ExecutorModel DeviceModel(int host_threads) {
  ExecutorModel model = ExecutorModel::TeslaP100();
  model.host_threads = host_threads;
  return model;
}

template <typename Trainer>
Pins TrainSingleDevice(const MpTrainOptions& options,
                       fault::FaultInjector* injector = nullptr,
                       int host_threads = 1) {
  const Dataset data = Blobs();
  SimExecutor gpu(DeviceModel(host_threads));
  gpu.SetFaultInjector(injector);
  MpTrainReport report;
  const MpSvmModel model =
      ValueOrDie(Trainer(options).Train(data, &gpu, &report));
  Pins pins;
  pins.Bytes("model", SerializeModel(model));
  pins.Report(report);
  return pins;
}

Pins TrainOva(int host_threads) {
  const Dataset data = Blobs();
  const MpTrainOptions options = SmallOptions();
  SimExecutor gpu(DeviceModel(host_threads));
  MpTrainReport report;
  const OvaModel model =
      ValueOrDie(OvaTrainer(options).Train(data, &gpu, &report));
  std::string bytes;
  for (const OvaClassEntry& entry : model.classes) {
    bytes += StrPrintf("class %d bias %a sigmoid %a %a svs", entry.cls,
                       entry.bias, entry.sigmoid.a, entry.sigmoid.b);
    for (size_t m = 0; m < entry.sv_pool_index.size(); ++m) {
      bytes += StrPrintf(" %d:%a", entry.sv_pool_index[m], entry.sv_coef[m]);
    }
    bytes += "\n";
  }
  bytes += "pool";
  for (int32_t row : model.pool_source_rows) bytes += StrPrintf(" %d", row);
  Pins pins;
  pins.Bytes("model", bytes);
  pins.Report(report);
  return pins;
}

void AddCluster(const cluster::ClusterTrainReport& report, Pins* pins) {
  pins->Real("makespan", report.makespan_sim_seconds);
  pins->Report(report.merged);
  pins->Count("pairs_sharded", report.pairs_sharded);
  pins->Count("dist.allreduces", report.dist.allreduces);
  pins->Count("dist.allreduce_rounds", report.dist.allreduce_rounds);
  pins->Real("dist.merge_seconds", report.dist.merge_seconds);
  pins->Real("dist.intra_node_bytes", report.dist.intra_node_bytes);
  pins->Real("dist.inter_node_bytes", report.dist.inter_node_bytes);
  for (size_t d = 0; d < report.devices.size(); ++d) {
    pins->Real(StrPrintf("device%zu.sim_seconds", d),
               report.devices[d].sim_seconds);
  }
  for (size_t p = 0; p < report.pair_outcomes.size(); ++p) {
    const PairTrainOutcome& outcome = report.pair_outcomes[p];
    pins->Count(StrPrintf("pair%zu.device", p), report.pair_device[p]);
    pins->Count(StrPrintf("pair%zu.retries", p), outcome.retries);
    pins->Real(StrPrintf("pair%zu.sigmoid_seconds", p),
               outcome.sigmoid_seconds);
    pins->Solver(StrPrintf("pair%zu.", p), outcome.stats);
  }
}

const char kSequentialThreads1[] =
    "kernel_values_computed=6372 "
    "kernel_values_reused=18036 "
    "model=a277579906c4c5f9 "
    "pair_retries=0 "
    "pairs_degraded=0 "
    "pairs_resumed=0 "
    "peak_device_bytes=0 "
    "phase.kernel_values=0x1.c2df664c9afbep-9 "
    "phase.other=0x1.c019fa0b1146p-8 "
    "phase.sigmoid=0x1.8e64f444d055cp-12 "
    "sim_seconds=0x1.5f34d4129befcp-7 "
    "solver.alloc_retries=0 "
    "solver.iterations=336 "
    "solver.kernel_row_retries=0 "
    "solver.kernel_rows_computed=177 "
    "solver.kernel_rows_reused=501 "
    "solver.outer_rounds=336 "
    "solver.phase.kernel_values=0x1.c2df664c9afbep-9 "
    "solver.phase.other=0x1.c019fa0b1146p-8 "
    "solver.rows_poisoned=0 ";
const char kGmpThreads1[] =
    "kernel_values_computed=8064 "
    "kernel_values_reused=19584 "
    "model=f59e79b9492ff8fb "
    "pair_retries=0 "
    "pairs_degraded=0 "
    "pairs_resumed=0 "
    "peak_device_bytes=9216 "
    "phase.kernel_values=0x1.e3f08a15f26d5p-13 "
    "phase.other=0x1.ac6d66df56acap-12 "
    "phase.sigmoid=0x1.8e64f444d056p-12 "
    "phase.subproblem=0x1.6ada3b2c9ce8fp-13 "
    "sim_seconds=0x1.c234502d53c6bp-12 "
    "solver.alloc_retries=0 "
    "solver.iterations=359 "
    "solver.kernel_row_retries=0 "
    "solver.kernel_rows_computed=224 "
    "solver.kernel_rows_reused=544 "
    "solver.outer_rounds=24 "
    "solver.phase.kernel_values=0x1.e3f08a15f26d5p-13 "
    "solver.phase.other=0x1.ac6d66df56acap-12 "
    "solver.phase.subproblem=0x1.6ada3b2c9ce8fp-13 "
    "solver.rows_poisoned=0 ";
const char kOvaThreads1[] =
    "kernel_values_computed=30528 "
    "kernel_values_reused=50112 "
    "model=4636896a53627ed8 "
    "pair_retries=0 "
    "pairs_degraded=0 "
    "pairs_resumed=0 "
    "peak_device_bytes=18432 "
    "phase.kernel_values=0x1.b57369fe97f4ep-12 "
    "phase.other=0x1.3cbac501a461ap-11 "
    "phase.subproblem=0x1.08ce46eec1547p-12 "
    "sim_seconds=0x1.a73a5a441a937p-10 "
    "solver.alloc_retries=0 "
    "solver.iterations=525 "
    "solver.kernel_row_retries=0 "
    "solver.kernel_rows_computed=424 "
    "solver.kernel_rows_reused=696 "
    "solver.outer_rounds=35 "
    "solver.phase.kernel_values=0x1.b57369fe97f4ep-12 "
    "solver.phase.other=0x1.3cbac501a461ap-11 "
    "solver.phase.subproblem=0x1.08ce46eec1547p-12 "
    "solver.rows_poisoned=0 ";
const char kGmpRetry[] =
    "kernel_values_computed=5184 "
    "kernel_values_reused=27072 "
    "model=f59e79b9492ff8fb "
    "pair_retries=3 "
    "pairs_degraded=0 "
    "pairs_resumed=0 "
    "peak_device_bytes=67118080 "
    "phase.kernel_values=0x1.ab937e2e52ce6p-12 "
    "phase.other=0x1.a7edcac88d711p-11 "
    "phase.sigmoid=0x1.cd57575182caap-11 "
    "phase.subproblem=0x1.1e48a942bf823p-12 "
    "sim_seconds=0x1.ca6ecb076813ep-9 "
    "solver.alloc_retries=1 "
    "solver.iterations=359 "
    "solver.kernel_row_retries=3 "
    "solver.kernel_rows_computed=324 "
    "solver.kernel_rows_reused=572 "
    "solver.outer_rounds=24 "
    "solver.phase.kernel_values=0x1.ab937e2e52ce6p-12 "
    "solver.phase.other=0x1.a7edcac88d711p-11 "
    "solver.phase.subproblem=0x1.1e48a942bf823p-12 "
    "solver.rows_poisoned=0 ";
const char kSequentialChaos[] =
    "kernel_values_computed=6372 "
    "kernel_values_reused=18036 "
    "model=a277579906c4c5f9 "
    "pair_retries=0 "
    "pairs_degraded=0 "
    "pairs_resumed=0 "
    "peak_device_bytes=0 "
    "phase.kernel_values=0x1.8546bd63be2bep-8 "
    "phase.other=0x1.b851cd1931ce4p-7 "
    "phase.sigmoid=0x1.647bcba511ce4p-11 "
    "sim_seconds=0x1.499cdf2e94061p-6 "
    "solver.alloc_retries=0 "
    "solver.iterations=336 "
    "solver.kernel_row_retries=0 "
    "solver.kernel_rows_computed=177 "
    "solver.kernel_rows_reused=501 "
    "solver.outer_rounds=336 "
    "solver.phase.kernel_values=0x1.8546bd63be2bep-8 "
    "solver.phase.other=0x1.b851cd1931ce4p-7 "
    "solver.rows_poisoned=0 ";
const char kGmpDegraded[] =
    "kernel_values_computed=5112 "
    "kernel_values_reused=22536 "
    "model=366371a0ecac2e9f "
    "pair_retries=3 "
    "pairs_degraded=1 "
    "pairs_resumed=0 "
    "peak_device_bytes=67118080 "
    "phase.kernel_values=0x1.984aaa4203687p-12 "
    "phase.other=0x1.4f9f03c8fe85ap-11 "
    "phase.sigmoid=0x1.77b67d2038e76p-11 "
    "phase.subproblem=0x1.fecd3c2cc6726p-13 "
    "sim_seconds=0x1.247e99ccd68e3p-9 "
    "solver.alloc_retries=0 "
    "solver.iterations=295 "
    "solver.kernel_row_retries=4 "
    "solver.kernel_rows_computed=286 "
    "solver.kernel_rows_reused=482 "
    "solver.outer_rounds=20 "
    "solver.phase.kernel_values=0x1.984aaa4203687p-12 "
    "solver.phase.other=0x1.4f9f03c8fe85ap-11 "
    "solver.phase.subproblem=0x1.fecd3c2cc6726p-13 "
    "solver.rows_poisoned=0 ";
const char kClusterShardedChaos[] =
    "device0.sim_seconds=0x1.7d492e7336d67p-10 "
    "device1.sim_seconds=0x1.3841de6f75a1ep-10 "
    "device2.sim_seconds=0x1.ef76507a8c8efp-9 "
    "device3.sim_seconds=0x1.da0e19ee3a164p-9 "
    "dist.allreduce_rounds=121 "
    "dist.allreduces=121 "
    "dist.inter_node_bytes=0x0p+0 "
    "dist.intra_node_bytes=0x1.59bp+17 "
    "dist.merge_seconds=0x1.fcbf800ec7a34p-14 "
    "kernel_values_computed=9396 "
    "kernel_values_reused=21708 "
    "makespan=0x1.ef76507a8c8efp-9 "
    "model=f59e79b9492ff8fb "
    "pair0.alloc_retries=0 "
    "pair0.device=0 "
    "pair0.iterations=56 "
    "pair0.kernel_row_retries=0 "
    "pair0.kernel_rows_computed=38 "
    "pair0.kernel_rows_reused=90 "
    "pair0.outer_rounds=4 "
    "pair0.phase.kernel_values=0x1.29fc0f731717cp-15 "
    "pair0.phase.other=0x1.7a4b5ea95d82cp-13 "
    "pair0.phase.subproblem=0x1.da4e077ed2b6cp-16 "
    "pair0.retries=0 "
    "pair0.rows_poisoned=0 "
    "pair0.sigmoid_seconds=0x1.0998a2d88ae4p-14 "
    "pair1.alloc_retries=0 "
    "pair1.device=2 "
    "pair1.iterations=56 "
    "pair1.kernel_row_retries=1 "
    "pair1.kernel_rows_computed=75 "
    "pair1.kernel_rows_reused=149 "
    "pair1.outer_rounds=4 "
    "pair1.phase.kernel_values=0x1.3347afb2a2068p-13 "
    "pair1.phase.other=0x1.7a4b5ea95d838p-13 "
    "pair1.phase.subproblem=0x1.da4e077ed2b4p-16 "
    "pair1.retries=1 "
    "pair1.rows_poisoned=0 "
    "pair1.sigmoid_seconds=0x1.0998a2d88ae4p-14 "
    "pair2.alloc_retries=0 "
    "pair2.device=0 "
    "pair2.iterations=60 "
    "pair2.kernel_row_retries=0 "
    "pair2.kernel_rows_computed=37 "
    "pair2.kernel_rows_reused=91 "
    "pair2.outer_rounds=4 "
    "pair2.phase.kernel_values=0x1.28d5e11afe3b8p-15 "
    "pair2.phase.other=0x1.5190a0a42b478p-14 "
    "pair2.phase.subproblem=0x1.e4375d224b96p-16 "
    "pair2.retries=0 "
    "pair2.rows_poisoned=0 "
    "pair2.sigmoid_seconds=0x1.568368c5278b6p-13 "
    "pair3.alloc_retries=0 "
    "pair3.device=2 "
    "pair3.iterations=64 "
    "pair3.kernel_row_retries=1 "
    "pair3.kernel_rows_computed=38 "
    "pair3.kernel_rows_reused=90 "
    "pair3.outer_rounds=4 "
    "pair3.phase.kernel_values=0x1.3347afb2a206p-13 "
    "pair3.phase.other=0x1.5260c4aa9434p-14 "
    "pair3.phase.subproblem=0x1.ee20b2c5c48p-16 "
    "pair3.retries=1 "
    "pair3.rows_poisoned=0 "
    "pair3.sigmoid_seconds=0x1.0998a2d88ae4p-14 "
    "pair4.alloc_retries=0 "
    "pair4.device=0 "
    "pair4.iterations=61 "
    "pair4.kernel_row_retries=0 "
    "pair4.kernel_rows_computed=36 "
    "pair4.kernel_rows_reused=92 "
    "pair4.outer_rounds=4 "
    "pair4.phase.kernel_values=0x1.27afb2c2e56p-15 "
    "pair4.phase.other=0x1.8f10cfaf2b15ap-12 "
    "pair4.phase.subproblem=0x1.e6b1b28b29ccp-16 "
    "pair4.retries=0 "
    "pair4.rows_poisoned=0 "
    "pair4.sigmoid_seconds=0x1.141d400f04d24p-12 "
    "pair5.alloc_retries=0 "
    "pair5.device=2 "
    "pair5.iterations=62 "
    "pair5.kernel_row_retries=0 "
    "pair5.kernel_rows_computed=37 "
    "pair5.kernel_rows_reused=91 "
    "pair5.outer_rounds=4 "
    "pair5.phase.kernel_values=0x1.025a9dbabef4p-12 "
    "pair5.phase.other=0x1.51cc18a6002p-14 "
    "pair5.phase.subproblem=0x1.e92c07f4081p-16 "
    "pair5.retries=0 "
    "pair5.rows_poisoned=0 "
    "pair5.sigmoid_seconds=0x1.568368c5278bp-13 "
    "pair_retries=2 "
    "pairs_degraded=0 "
    "pairs_resumed=0 "
    "pairs_sharded=6 "
    "peak_device_bytes=67108864 "
    "phase.kernel_values=0x1.527940ebc0285p-11 "
    "phase.other=0x1.01b2e3756e1fep-10 "
    "phase.sigmoid=0x1.98e9917b4a444p-11 "
    "phase.subproblem=0x1.6ada3b2c9cebap-13 "
    "sim_seconds=0x1.ef76507a8c8efp-9 "
    "solver.alloc_retries=0 "
    "solver.iterations=359 "
    "solver.kernel_row_retries=2 "
    "solver.kernel_rows_computed=261 "
    "solver.kernel_rows_reused=603 "
    "solver.outer_rounds=24 "
    "solver.phase.kernel_values=0x1.527940ebc0285p-11 "
    "solver.phase.other=0x1.01b2e3756e1fep-10 "
    "solver.phase.subproblem=0x1.6ada3b2c9cebap-13 "
    "solver.rows_poisoned=0 ";
const char kClusterThreads4[] =
    "device0.sim_seconds=0x1.ac11b9bb418f1p-13 "
    "device1.sim_seconds=0x1.c384ba86c82ap-13 "
    "dist.allreduce_rounds=0 "
    "dist.allreduces=0 "
    "dist.inter_node_bytes=0x0p+0 "
    "dist.intra_node_bytes=0x0p+0 "
    "dist.merge_seconds=0x0p+0 "
    "kernel_values_computed=8064 "
    "kernel_values_reused=19584 "
    "makespan=0x1.c384ba86c82ap-13 "
    "model=f59e79b9492ff8fb "
    "pair0.alloc_retries=0 "
    "pair0.device=0 "
    "pair0.iterations=56 "
    "pair0.kernel_row_retries=0 "
    "pair0.kernel_rows_computed=38 "
    "pair0.kernel_rows_reused=90 "
    "pair0.outer_rounds=4 "
    "pair0.phase.kernel_values=0x1.1a34bd47aa017p-15 "
    "pair0.phase.other=0x1.1c979d3778701p-14 "
    "pair0.phase.subproblem=0x1.da4e077ed2b6cp-16 "
    "pair0.retries=0 "
    "pair0.rows_poisoned=0 "
    "pair0.sigmoid_seconds=0x1.0998a2d88ae4p-14 "
    "pair1.alloc_retries=0 "
    "pair1.device=1 "
    "pair1.iterations=56 "
    "pair1.kernel_row_retries=0 "
    "pair1.kernel_rows_computed=38 "
    "pair1.kernel_rows_reused=90 "
    "pair1.outer_rounds=4 "
    "pair1.phase.kernel_values=0x1.6e17936b37a53p-15 "
    "pair1.phase.other=0x1.1c979d3778701p-14 "
    "pair1.phase.subproblem=0x1.da4e077ed2b6cp-16 "
    "pair1.retries=0 "
    "pair1.rows_poisoned=0 "
    "pair1.sigmoid_seconds=0x1.0998a2d88ae4p-14 "
    "pair2.alloc_retries=0 "
    "pair2.device=0 "
    "pair2.iterations=60 "
    "pair2.kernel_row_retries=0 "
    "pair2.kernel_rows_computed=37 "
    "pair2.kernel_rows_reused=91 "
    "pair2.outer_rounds=4 "
    "pair2.phase.kernel_values=0x1.17ec0ad773317p-15 "
    "pair2.phase.other=0x1.1d67c13de15a7p-14 "
    "pair2.phase.subproblem=0x1.e4375d224b94cp-16 "
    "pair2.retries=0 "
    "pair2.rows_poisoned=0 "
    "pair2.sigmoid_seconds=0x1.0998a2d88ae4p-14 "
    "pair3.alloc_retries=0 "
    "pair3.device=1 "
    "pair3.iterations=64 "
    "pair3.kernel_row_retries=0 "
    "pair3.kernel_rows_computed=38 "
    "pair3.kernel_rows_reused=90 "
    "pair3.outer_rounds=4 "
    "pair3.phase.kernel_values=0x1.6e17936b37a53p-15 "
    "pair3.phase.other=0x1.1f08094ab32edp-14 "
    "pair3.phase.subproblem=0x1.ee20b2c5c4734p-16 "
    "pair3.retries=0 "
    "pair3.rows_poisoned=0 "
    "pair3.sigmoid_seconds=0x1.0998a2d88ae4p-14 "
    "pair4.alloc_retries=0 "
    "pair4.device=0 "
    "pair4.iterations=61 "
    "pair4.kernel_row_retries=0 "
    "pair4.kernel_rows_computed=36 "
    "pair4.kernel_rows_reused=92 "
    "pair4.outer_rounds=4 "
    "pair4.phase.kernel_values=0x1.15a358673c617p-15 "
    "pair4.phase.other=0x1.1e37e5444a449p-14 "
    "pair4.phase.subproblem=0x1.e6b1b28b29cc4p-16 "
    "pair4.retries=0 "
    "pair4.rows_poisoned=0 "
    "pair4.sigmoid_seconds=0x1.0998a2d88ae4p-14 "
    "pair5.alloc_retries=0 "
    "pair5.device=1 "
    "pair5.iterations=62 "
    "pair5.kernel_row_retries=0 "
    "pair5.kernel_rows_computed=37 "
    "pair5.kernel_rows_reused=91 "
    "pair5.outer_rounds=4 "
    "pair5.phase.kernel_values=0x1.6bcee0fb00d53p-15 "
    "pair5.phase.other=0x1.1ddeb1418b04bp-14 "
    "pair5.phase.subproblem=0x1.e92c07f40803cp-16 "
    "pair5.retries=0 "
    "pair5.rows_poisoned=0 "
    "pair5.sigmoid_seconds=0x1.0998a2d88ae4p-14 "
    "pair_retries=0 "
    "pairs_degraded=0 "
    "pairs_resumed=0 "
    "pairs_sharded=0 "
    "peak_device_bytes=9216 "
    "phase.kernel_values=0x1.e3f08a15f26dp-13 "
    "phase.other=0x1.ac6d66df56acap-12 "
    "phase.sigmoid=0x1.8e64f444d056p-12 "
    "phase.subproblem=0x1.6ada3b2c9ce8cp-13 "
    "sim_seconds=0x1.c384ba86c82ap-13 "
    "solver.alloc_retries=0 "
    "solver.iterations=359 "
    "solver.kernel_row_retries=0 "
    "solver.kernel_rows_computed=224 "
    "solver.kernel_rows_reused=544 "
    "solver.outer_rounds=24 "
    "solver.phase.kernel_values=0x1.e3f08a15f26dp-13 "
    "solver.phase.other=0x1.ac6d66df56acap-12 "
    "solver.phase.subproblem=0x1.6ada3b2c9ce8cp-13 "
    "solver.rows_poisoned=0 ";
const char kWarmRetrainChaos[] =
    "device0.kernel_values_computed=5592 "
    "device0.kernel_values_reused=6564 "
    "device0.now=0x1.9baa5e9499e7ap-10 "
    "device1.kernel_values_computed=9216 "
    "device1.kernel_values_reused=13698 "
    "device1.now=0x1.da704e7ed4a49p-8 "
    "makespan=0x1.da704e7ed4a49p-8 "
    "model=fc5683ff2b66d27c "
    "pair_retries=4 "
    "pairs_carried=1 "
    "pairs_degraded=0 "
    "pairs_retrained=5 "
    "retrained0.alloc_retries=0 "
    "retrained0.iterations=37 "
    "retrained0.kernel_row_retries=0 "
    "retrained0.kernel_rows_computed=38 "
    "retrained0.kernel_rows_reused=58 "
    "retrained0.outer_rounds=3 "
    "retrained0.pair=0 "
    "retrained0.phase.kernel_values=0x1.4a839a253872p-15 "
    "retrained0.phase.other=0x1.3e640ff987cbap-13 "
    "retrained0.phase.subproblem=0x1.5756da92c6f3p-16 "
    "retrained0.retries=0 "
    "retrained0.rows_poisoned=0 "
    "retrained0.sigmoid_seconds=0x1.0998a2d88ae4p-14 "
    "retrained1.alloc_retries=0 "
    "retrained1.iterations=44 "
    "retrained1.kernel_row_retries=0 "
    "retrained1.kernel_rows_computed=30 "
    "retrained1.kernel_rows_reused=60 "
    "retrained1.outer_rounds=3 "
    "retrained1.pair=1 "
    "retrained1.phase.kernel_values=0x1.2c3c9ecaeaec8p-16 "
    "retrained1.phase.other=0x1.b2b935d4ffb1cp-15 "
    "retrained1.phase.subproblem=0x1.61dec590775fp-16 "
    "retrained1.retries=0 "
    "retrained1.rows_poisoned=0 "
    "retrained1.sigmoid_seconds=0x1.0745f2c63a8fep-14 "
    "retrained2.alloc_retries=0 "
    "retrained2.iterations=30 "
    "retrained2.kernel_row_retries=0 "
    "retrained2.kernel_rows_computed=30 "
    "retrained2.kernel_rows_reused=30 "
    "retrained2.outer_rounds=2 "
    "retrained2.pair=2 "
    "retrained2.phase.kernel_values=0x1.306b0eebe1ea8p-16 "
    "retrained2.phase.other=0x1.2e81906d4e551p-15 "
    "retrained2.phase.subproblem=0x1.daec9cd90a44cp-17 "
    "retrained2.retries=0 "
    "retrained2.rows_poisoned=0 "
    "retrained2.sigmoid_seconds=0x1.555a10bbff614p-13 "
    "retrained3.alloc_retries=0 "
    "retrained3.iterations=62 "
    "retrained3.kernel_row_retries=1 "
    "retrained3.kernel_rows_computed=36 "
    "retrained3.kernel_rows_reused=92 "
    "retrained3.outer_rounds=4 "
    "retrained3.pair=3 "
    "retrained3.phase.kernel_values=0x1.99a1ee9c3a98p-15 "
    "retrained3.phase.other=0x1.2146795debecp-14 "
    "retrained3.phase.subproblem=0x1.0edc985763198p-13 "
    "retrained3.retries=1 "
    "retrained3.rows_poisoned=0 "
    "retrained3.sigmoid_seconds=0x1.38928b675519p-14 "
    "retrained4.alloc_retries=0 "
    "retrained4.iterations=69 "
    "retrained4.kernel_row_retries=3 "
    "retrained4.kernel_rows_computed=109 "
    "retrained4.kernel_rows_reused=179 "
    "retrained4.outer_rounds=5 "
    "retrained4.pair=4 "
    "retrained4.phase.kernel_values=0x1.596f856d485p-16 "
    "retrained4.phase.other=0x1.620382c0c064p-14 "
    "retrained4.phase.subproblem=0x1.273399fad4ap-15 "
    "retrained4.retries=3 "
    "retrained4.rows_poisoned=0 "
    "retrained4.sigmoid_seconds=0x1.0beb52eadb28p-14 "
    "warm_seeded_rows=138 ";

TEST(PairEnginePinTest, SequentialAtOneAndFourHostThreads) {
  const MpTrainOptions options = SmallOptions();
  ExpectPins(kSequentialThreads1,
             TrainSingleDevice<SequentialMpTrainer>(options, nullptr, 1));
  ExpectPins(kSequentialThreads1,
             TrainSingleDevice<SequentialMpTrainer>(options, nullptr, 4));
}

TEST(PairEnginePinTest, GmpAtOneAndFourHostThreads) {
  MpTrainOptions options = SmallOptions();
  options.share_kernel_blocks = false;
  ExpectPins(kGmpThreads1,
             TrainSingleDevice<GmpSvmTrainer>(options, nullptr, 1));
  ExpectPins(kGmpThreads1,
             TrainSingleDevice<GmpSvmTrainer>(options, nullptr, 4));
}

TEST(PairEnginePinTest, OvaAtOneAndFourHostThreads) {
  ExpectPins(kOvaThreads1, TrainOva(1));
  ExpectPins(kOvaThreads1, TrainOva(4));
}

TEST(PairEnginePinTest, GmpWholePairRetries) {
  fault::FaultInjector injector(RetryPlan(11));
  const Pins pins = TrainSingleDevice<GmpSvmTrainer>(RetryOptions(), &injector);
  EXPECT_NE(pins.values().at("pair_retries"), "0");
  EXPECT_EQ(pins.values().at("pairs_degraded"), "0");
  ExpectPins(kGmpRetry, pins);
}

// SmoSolver has no transient-failure site, so the Sequential trainer under
// chaos never retries a whole pair; this pins its serial path with an
// injector attached (latency spikes, cache allocation failures).
TEST(PairEnginePinTest, SequentialUnderChaos) {
  fault::FaultInjector injector(RetryPlan(5));
  const Pins pins =
      TrainSingleDevice<SequentialMpTrainer>(RetryOptions(), &injector);
  EXPECT_GT(injector.total_injected(), 0);
  ExpectPins(kSequentialChaos, pins);
}

TEST(PairEnginePinTest, GmpDegradedPairs) {
  MpTrainOptions options = RetryOptions();
  options.pair_failure_policy = PairFailurePolicy::kSkipDegraded;
  options.pair_retry.max_attempts = 2;
  fault::FaultInjector injector(RetryPlan(9));
  const Pins pins = TrainSingleDevice<GmpSvmTrainer>(options, &injector);
  EXPECT_NE(pins.values().at("pairs_degraded"), "0");
  EXPECT_NE(pins.values().at("pairs_degraded"), "6");
  ExpectPins(kGmpDegraded, pins);
}

TEST(PairEnginePinTest, ClusterShardedPairsUnderChaos) {
  const Dataset data = Blobs();
  cluster::SimCluster cluster = cluster::SimCluster::HomogeneousNodes(
      2, 2, ExecutorModel::TeslaP100());
  cluster::ClusterTrainOptions options;
  options.train = RetryOptions();
  options.schedule.max_shards_per_pair = 2;
  options.schedule.shard_oversize_factor = 0.0;
  // No device or node loss, so every pair the scheduler shards stays
  // sharded.
  options.fault = RetryPlan(11);
  options.fault->device_loss_prob = 0.0;
  options.fault->node_loss_prob = 0.0;
  cluster::ClusterTrainReport report;
  const MpSvmModel model = ValueOrDie(
      cluster::ClusterTrainer(options).Train(data, &cluster, &report));

  cluster::ScheduleOptions schedule = options.schedule;
  schedule.topology = &cluster.topology();
  std::vector<size_t> all_pairs(data.ClassPairs().size());
  for (size_t p = 0; p < all_pairs.size(); ++p) all_pairs[p] = p;
  const cluster::PairAssignment assignment = cluster::SchedulePairs(
      data, all_pairs, cluster.speeds(), {}, schedule);
  ASSERT_FALSE(assignment.sharded_pairs.empty());
  EXPECT_EQ(report.pairs_sharded,
            static_cast<int>(assignment.sharded_pairs.size()));
  int64_t sharded_retries = 0;
  for (const cluster::ShardedPair& sharded : assignment.sharded_pairs) {
    sharded_retries += report.pair_outcomes[sharded.pair].retries;
  }
  EXPECT_GT(sharded_retries, 0) << "no sharded pair was retried";
  Pins pins;
  pins.Bytes("model", SerializeModel(model));
  AddCluster(report, &pins);
  ExpectPins(kClusterShardedChaos, pins);
}

TEST(PairEnginePinTest, ClusterDevicesAtFourHostThreads) {
  const Dataset data = Blobs();
  cluster::SimCluster cluster =
      cluster::SimCluster::Homogeneous(2, DeviceModel(4));
  cluster::ClusterTrainOptions options;
  options.train = SmallOptions();
  options.train.share_kernel_blocks = false;
  cluster::ClusterTrainReport report;
  const MpSvmModel model = ValueOrDie(
      cluster::ClusterTrainer(options).Train(data, &cluster, &report));
  Pins pins;
  pins.Bytes("model", SerializeModel(model));
  AddCluster(report, &pins);
  ExpectPins(kClusterThreads4, pins);
}

TEST(PairEnginePinTest, WarmRetrainUnderChaos) {
  const Dataset base = Blobs();
  SimExecutor gpu(ExecutorModel::TeslaP100());
  const MpSvmModel initial =
      ValueOrDie(GmpSvmTrainer(SmallOptions()).Train(base, &gpu, nullptr));
  const std::vector<PairCheckpoint> previous =
      online::CheckpointsFromModel(initial);

  online::DatasetDelta delta;
  delta.base_fingerprint = online::DatasetFingerprint(base);
  delta.num_classes = base.num_classes();
  for (int i = 0; i < 6; ++i) {
    online::DeltaOp op;
    op.kind = online::DeltaOp::Kind::kRelabel;
    op.row = base.ClassRows(0)[static_cast<size_t>(i)];
    op.old_label = 0;
    op.new_label = 1;
    delta.ops.push_back(op);
  }
  const Dataset drifted = ValueOrDie(online::ApplyDelta(base, delta));

  cluster::SimCluster cluster =
      cluster::SimCluster::Homogeneous(2, ExecutorModel::TeslaP100());
  online::WarmRetrainOptions options;
  options.train = RetryOptions();
  options.fault = RetryPlan(11);
  online::WarmRetrainReport report;
  const MpSvmModel model = ValueOrDie(online::WarmRetrain(
      drifted, previous, online::AffectedClasses(delta), options, &cluster,
      &report));
  EXPECT_GT(report.pair_retries, 0);

  Pins pins;
  pins.Bytes("model", SerializeModel(model));
  pins.Real("makespan", report.makespan_sim_seconds);
  pins.Count("pairs_retrained", report.pairs_retrained);
  pins.Count("pairs_carried", report.pairs_carried);
  pins.Count("pair_retries", report.pair_retries);
  pins.Count("pairs_degraded", report.pairs_degraded);
  pins.Count("warm_seeded_rows", report.warm_seeded_rows);
  for (size_t i = 0; i < report.retrained.size(); ++i) {
    const PairTrainOutcome& outcome = report.retrained[i];
    pins.Count(StrPrintf("retrained%zu.pair", i),
               static_cast<int64_t>(outcome.pair_index));
    pins.Count(StrPrintf("retrained%zu.retries", i), outcome.retries);
    pins.Real(StrPrintf("retrained%zu.sigmoid_seconds", i),
              outcome.sigmoid_seconds);
    pins.Solver(StrPrintf("retrained%zu.", i), outcome.stats);
  }
  for (int d = 0; d < cluster.num_devices(); ++d) {
    const ExecutorCounters& counters = cluster.device(d)->counters();
    pins.Real(StrPrintf("device%d.now", d), cluster.device(d)->NowSeconds());
    pins.Count(StrPrintf("device%d.kernel_values_computed", d),
               counters.kernel_values_computed);
    pins.Count(StrPrintf("device%d.kernel_values_reused", d),
               counters.kernel_values_reused);
  }
  ExpectPins(kWarmRetrainChaos, pins);
}

}  // namespace
}  // namespace gmpsvm
