// Thread-count invariance: host_threads is a wall-clock knob ONLY. For every
// value, trained models, simulated times, phase attributions, device
// counters, traces, and predicted probabilities must be byte-identical to
// the single-threaded run — including under an injected fault plan. Pairs
// always train in order on the calling thread; only op-level bodies are
// distributed.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "../simd_tier_guard.h"
#include "../test_util.h"
#include "common/string_util.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"
#include "core/ova_trainer.h"
#include "core/predictor.h"
#include "fault/fault_injector.h"
#include "obs/span.h"
#include "simd/simd.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

// Two small Table-2-style proxies with different shapes: a 4-class problem
// with pairwise groups wider than max_concurrent_svms, and a 3-class one
// with overlapping classes (more SMO iterations, shared SVs).
struct Proxy {
  const char* name;
  int k;
  int n_per_class;
  int dim;
  double separation;
  uint64_t seed;
};

constexpr Proxy kProxies[] = {
    {"proxy-a", 4, 22, 6, 2.5, 42},
    {"proxy-b", 3, 30, 5, 1.5, 11},
};

MpTrainOptions BaseOptions() {
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 32;
  options.batch.working_set.q = 16;
  options.max_concurrent_svms = 4;
  options.shared_cache_bytes = 64ull << 20;
  return options;
}

struct RunOutput {
  std::string model_text;
  double sim_seconds = 0.0;
  int64_t solver_iterations = 0;
  std::string phases_text;
  double counters_flops = 0.0;
  int64_t launches = 0;
  int64_t kernel_values_computed = 0;
  int64_t kernel_values_reused = 0;
  size_t peak_bytes = 0;
  size_t trace_spans = 0;
  std::string trace_json;
  std::vector<double> probabilities;
};

std::string PhasesText(const PhaseTimer& phases) {
  std::string text;
  for (const auto& [name, secs] : phases.phases()) {
    text += name + "=" + StrPrintf("%.17g", secs) + ";";
  }
  return text;
}

enum class Trainer { kGmp, kGmpUnsharedCache, kSequential };

// Trains + predicts one proxy at a given thread count
// (ExecutorModel::host_threads).
RunOutput TrainPredict(const Proxy& proxy, Trainer trainer, int host_threads,
                       fault::FaultPlan* plan) {
  auto data = ValueOrDie(MakeMulticlassBlobs(proxy.k, proxy.n_per_class,
                                             proxy.dim, proxy.separation,
                                             proxy.seed));
  MpTrainOptions options = BaseOptions();
  if (trainer == Trainer::kGmpUnsharedCache) options.share_kernel_blocks = false;
  ExecutorModel model = ExecutorModel::TeslaP100();
  model.host_threads = host_threads;
  SimExecutor exec(std::move(model));
  obs::TraceRecorder trace;
  exec.SetSpanRecorder(&trace);
  std::optional<fault::FaultInjector> injector;
  if (plan != nullptr) {
    injector.emplace(*plan);
    exec.SetFaultInjector(&*injector);
  }

  MpTrainReport report;
  MpSvmModel svm_model;
  if (trainer == Trainer::kSequential) {
    svm_model =
        ValueOrDie(SequentialMpTrainer(options).Train(data, &exec, &report));
  } else {
    svm_model = ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, &report));
  }

  RunOutput out;
  out.model_text = SerializeModel(svm_model);
  out.sim_seconds = report.sim_seconds;
  out.solver_iterations = report.solver.iterations;
  out.phases_text = PhasesText(report.phases);
  out.counters_flops = exec.counters().flops;
  out.launches = exec.counters().launches;
  out.kernel_values_computed = exec.counters().kernel_values_computed;
  out.kernel_values_reused = exec.counters().kernel_values_reused;
  out.peak_bytes = exec.counters().peak_bytes_in_use;
  out.trace_spans = trace.size();
  out.trace_json = trace.ToChromeJson();

  MpSvmPredictor predictor(&svm_model);
  auto pred =
      ValueOrDie(predictor.Predict(data.features(), &exec, PredictOptions{}));
  out.probabilities = std::move(pred.probabilities);
  return out;
}

void ExpectSameRun(const RunOutput& base, const RunOutput& other,
                   const std::string& what) {
  EXPECT_EQ(base.model_text, other.model_text) << what;
  EXPECT_EQ(base.sim_seconds, other.sim_seconds) << what;
  EXPECT_EQ(base.solver_iterations, other.solver_iterations) << what;
  EXPECT_EQ(base.phases_text, other.phases_text) << what;
  EXPECT_EQ(base.counters_flops, other.counters_flops) << what;
  EXPECT_EQ(base.launches, other.launches) << what;
  EXPECT_EQ(base.kernel_values_computed, other.kernel_values_computed) << what;
  EXPECT_EQ(base.kernel_values_reused, other.kernel_values_reused) << what;
  EXPECT_EQ(base.peak_bytes, other.peak_bytes) << what;
  EXPECT_EQ(base.trace_spans, other.trace_spans) << what;
  EXPECT_TRUE(base.trace_json == other.trace_json) << what;
  ASSERT_EQ(base.probabilities.size(), other.probabilities.size()) << what;
  EXPECT_EQ(0, std::memcmp(base.probabilities.data(),
                           other.probabilities.data(),
                           base.probabilities.size() * sizeof(double)))
      << what;
}

TEST(HostDeterminismTest, GmpTrainerInvariantAcrossThreadCounts) {
  for (const Proxy& proxy : kProxies) {
    RunOutput base = TrainPredict(proxy, Trainer::kGmp, 1, nullptr);
    for (int threads : {2, 8}) {
      ExpectSameRun(base,
                    TrainPredict(proxy, Trainer::kGmp, threads, nullptr),
                    std::string(proxy.name) + " gmp threads=" +
                        std::to_string(threads));
    }
  }
}

TEST(HostDeterminismTest, GmpUnsharedCacheInvariantAcrossThreadCounts) {
  // With kernel-block sharing off, every pair computes its own kernel rows,
  // so the most op-level work fans out across the host threads.
  for (const Proxy& proxy : kProxies) {
    RunOutput base =
        TrainPredict(proxy, Trainer::kGmpUnsharedCache, 1, nullptr);
    for (int threads : {2, 8}) {
      ExpectSameRun(base,
                    TrainPredict(proxy, Trainer::kGmpUnsharedCache, threads, nullptr),
                    std::string(proxy.name) + " gmp-nocache threads=" +
                        std::to_string(threads));
    }
  }
}

TEST(HostDeterminismTest, SequentialTrainerInvariantAcrossThreadCounts) {
  for (const Proxy& proxy : kProxies) {
    RunOutput base =
        TrainPredict(proxy, Trainer::kSequential, 1, nullptr);
    for (int threads : {2, 8}) {
      ExpectSameRun(base,
                    TrainPredict(proxy, Trainer::kSequential, threads, nullptr),
                    std::string(proxy.name) + " seq threads=" +
                        std::to_string(threads));
    }
  }
}

TEST(HostDeterminismTest, ChaosRunsInvariantAcrossThreadCounts) {
  // Fault draws are per-site and order-dependent, and op bodies still fan
  // out. The chaotic run itself must not see the thread count.
  fault::FaultPlan plan = fault::FaultPlan::Chaos(7);
  plan.alloc_fail_prob = 0.25;
  plan.kernel_row_fail_prob = 0.25;
  plan.latency_spike_prob = 0.25;
  const Proxy& proxy = kProxies[0];
  fault::FaultPlan p1 = plan, p2 = plan, p3 = plan;
  RunOutput base = TrainPredict(proxy, Trainer::kGmp, 1, &p1);
  ExpectSameRun(base, TrainPredict(proxy, Trainer::kGmp, 2, &p2),
                "chaos threads=2");
  ExpectSameRun(base, TrainPredict(proxy, Trainer::kGmp, 8, &p3),
                "chaos threads=8");
}

TEST(HostDeterminismTest, SimdTierInvariantEndToEnd) {
  // The SIMD kernel tier is a wall-clock knob only (src/simd/simd.h): the
  // whole train+predict pipeline must produce byte-identical models, sim
  // times, counters, traces and probabilities on the scalar reference and on
  // the best vector tier this CPU has — on top of the thread-count
  // invariance above (run at 2 threads to compose the two). On a scalar-only
  // CPU both runs resolve to the same tier and this degenerates to a
  // self-comparison.
  const Proxy& proxy = kProxies[0];
  const auto run_on = [&](simd::SimdTier tier) {
    const testing::ScopedSimdTier scope(tier);
    return TrainPredict(proxy, Trainer::kGmp, 2, nullptr);
  };
  RunOutput scalar_run = run_on(simd::SimdTier::kScalar);
  RunOutput vector_run = run_on(simd::DetectBestTier());
  ExpectSameRun(scalar_run, vector_run,
                std::string("simd scalar-vs-") +
                    simd::TierName(simd::DetectBestTier()));
}

TEST(HostDeterminismTest, OvaTrainerInvariantAcrossThreadCounts) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 24, 5, 2.0, 29));
  auto run = [&](int threads) {
    MpTrainOptions options = BaseOptions();
    ExecutorModel device = ExecutorModel::TeslaP100();
    device.host_threads = threads;
    SimExecutor exec(std::move(device));
    MpTrainReport report;
    auto model = ValueOrDie(OvaTrainer(options).Train(data, &exec, &report));
    auto pred = ValueOrDie(OvaPredict(model, data.features(), &exec));
    return std::make_tuple(report.sim_seconds, PhasesText(report.phases),
                           model.classes, std::move(pred.probabilities),
                           exec.counters().flops);
  };
  auto [sim1, phases1, classes1, prob1, flops1] = run(1);
  for (int threads : {2, 8}) {
    auto [simN, phasesN, classesN, probN, flopsN] = run(threads);
    EXPECT_EQ(sim1, simN) << threads;
    EXPECT_EQ(phases1, phasesN) << threads;
    EXPECT_EQ(flops1, flopsN) << threads;
    ASSERT_EQ(classes1.size(), classesN.size());
    for (size_t c = 0; c < classes1.size(); ++c) {
      EXPECT_EQ(classes1[c].bias, classesN[c].bias) << threads << " class " << c;
      EXPECT_EQ(classes1[c].sigmoid.a, classesN[c].sigmoid.a) << threads;
      EXPECT_EQ(classes1[c].sigmoid.b, classesN[c].sigmoid.b) << threads;
      ASSERT_EQ(classes1[c].sv_coef.size(), classesN[c].sv_coef.size());
      EXPECT_EQ(0, std::memcmp(classes1[c].sv_coef.data(),
                               classesN[c].sv_coef.data(),
                               classes1[c].sv_coef.size() * sizeof(double)));
    }
    ASSERT_EQ(prob1.size(), probN.size());
    EXPECT_EQ(0, std::memcmp(prob1.data(), probN.data(),
                             prob1.size() * sizeof(double)));
  }
}

}  // namespace
}  // namespace gmpsvm
