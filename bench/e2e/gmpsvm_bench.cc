// gmpsvm_bench: the end-to-end benchmark of the whole GMP-SVM stack.
//
//   gmpsvm_bench --workload=<name> [--seed=<n>] [--seconds=<s>]
//                [--json=<path>] [--trace=<dir>] [--smoke]
//
// Workloads (README.md says why each was chosen):
//   train-mnist     GmpSvmTrainer::Train on the MNIST proxy, fresh executor
//                   per call, plus one test-set Predict for quality
//   predict-largek  2048-row MpSvmPredictor::Predict against a k = 64 model
//   serve-mnist     open-loop InferenceServer traffic at three fixed rates,
//                   then a rate ladder for the highest sustainable rate
//   retrain-k16     online update cycles: ApplyDelta -> CheckpointsFromModel
//                   -> WarmRetrain -> canary Predict -> ModelRegistry::Register
//
// Inputs come from --seed. The amount of work comes from --seconds alone
// (sized so a run measures about that long on a 4-vCPU x86-64 VM), so two
// commits run with the same flags do identical work. Only calls into public
// layer APIs are timed. Every metric of harness.h's catalog is printed with
// its unit and written to --json; the exit code is 1 if a correctness check
// failed or an operation failed, 2 on a usage error.
//
// With --trace=<dir> the workload runs twice: untraced, for the end-to-end
// metrics, then traced, for the per-layer metrics. The traced run records
// benchmark-side spans around each layer call and attaches the runtime's
// obs::TraceRecorder to the executors and servers of its first rep, then
// writes <dir>/trace.json (Chrome trace) and <dir>/layers.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "data/synthetic.h"
#include "device/executor.h"
#include "harness.h"
#include "metrics/calibration.h"
#include "metrics/metrics.h"
#include "obs/span.h"
#include "online/delta.h"
#include "online/warm_retrain.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "simd/simd.h"

namespace gmpsvm::e2e {
namespace {

// --- Flags -------------------------------------------------------------------

struct Flags {
  std::string workload;
  int32_t seed = 1;
  double seconds = 15.0;
  std::string json_out;
  std::string trace_dir;
  bool smoke = false;  // minimal op counts and one set-up rep
};

constexpr const char* kUsage =
    "usage: gmpsvm_bench --workload=<train-mnist|predict-largek|serve-mnist|"
    "retrain-k16>\n"
    "                    [--seed=<n>] [--seconds=<s>] [--json=<path>]\n"
    "                    [--trace=<dir>] [--smoke]\n";

// Strict parsing: unknown flags and malformed or out-of-range numbers are
// usage errors, never silently defaulted.
bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const bool has_value = eq != std::string::npos;
    if (key == "--smoke" && !has_value) {
      flags->smoke = true;
    } else if (key == "--workload" && has_value && !value.empty()) {
      flags->workload = value;
    } else if (key == "--seed" && has_value) {
      if (!ParseInt32(value, &flags->seed) || flags->seed < 0) {
        *error = "--seed must be a non-negative integer, got '" + value + "'";
        return false;
      }
    } else if (key == "--seconds" && has_value) {
      if (!ParseDouble(value, &flags->seconds) || !(flags->seconds > 0.0) ||
          flags->seconds > 600.0) {
        *error = "--seconds must be a number in (0, 600], got '" + value + "'";
        return false;
      }
    } else if (key == "--json" && has_value && !value.empty()) {
      flags->json_out = value;
    } else if (key == "--trace" && has_value && !value.empty()) {
      flags->trace_dir = value;
    } else {
      *error = "unknown or malformed argument: " + arg;
      return false;
    }
  }
  if (flags->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

// Ops for a workload: `per_second` x --seconds, at least `minimum`; exactly
// `minimum` under --smoke.
int64_t Scaled(const Flags& flags, double per_second, int64_t minimum) {
  if (flags.smoke) return minimum;
  return std::max<int64_t>(minimum, std::llround(per_second * flags.seconds));
}

int SetupReps(const Flags& flags) { return flags.smoke ? 1 : 7; }

// Closed-loop workloads split their ops into this many consecutive blocks
// (see OpSummary).
constexpr int64_t kOpBlocks = 5;
int64_t BlockSize(int64_t ops) { return (ops + kOpBlocks - 1) / kOpBlocks; }

// --- Fixtures ----------------------------------------------------------------
//
// Specs and training options are pinned here rather than taken from the
// paper-table benches' helpers, so the workloads stay fixed while those
// evolve. The values are the paper's configuration as bench/bench_common.cc
// applies it: buffer 1024 rows, q = 512, a 2 GB block cache and a P100,
// each scaled by the proxy's sigma = max(rows / paper rows, 1/16).

constexpr double kMnistSigma = 1.0 / 16.0;  // 3000 / 60000, floored at 1/16

// The Table-2 MNIST proxy (3000 x 256 training rows, 25% dense, k = 10).
SyntheticSpec MnistSpec() {
  SyntheticSpec spec;
  spec.name = "MNIST";
  spec.num_classes = 10;
  spec.paper_cardinality = 60000;
  spec.dim = 256;
  spec.paper_dim = 780;
  spec.density = 0.25;
  spec.separation = 0.42;
  spec.c = 10.0;
  spec.gamma = 0.125;
  spec.seed = 107;
  return spec;
}

// bench_serve_throughput's LargeK-64 problem (16 training rows per class).
SyntheticSpec LargeKSpec() {
  SyntheticSpec spec;
  spec.name = "LargeK-64";
  spec.num_classes = 64;
  spec.dim = 24;
  spec.density = 1.0;
  spec.separation = 4.0;
  spec.c = 4.0;
  spec.gamma = 0.5;
  spec.seed = 71;
  return spec;
}

// bench_retrain's RETRAIN-K16 problem, with overlapping classes so the
// canary's log-loss is far from zero.
SyntheticSpec RetrainSpec() {
  SyntheticSpec spec;
  spec.name = "RETRAIN-K16";
  spec.num_classes = 16;
  spec.dim = 24;
  spec.density = 1.0;
  spec.separation = 1.2;
  spec.gamma = 0.3;
  spec.seed = 42;
  return spec;
}

// Draws one seed's rows of a workload. The problem itself (class centers,
// feature scale) is fixed by the spec's own seed; --seed picks which rows of
// a pool twice the needed size land in each part, `per_class[p]` rows of
// every class for part p. Seeds thus vary the sample, not the problem, so
// timings and quality move with the code rather than with the draw.
std::vector<Dataset> DrawParts(SyntheticSpec spec, int32_t seed,
                               const std::vector<int64_t>& per_class) {
  const int k = spec.num_classes;
  int64_t needed = 0;
  for (int64_t n : per_class) needed += n;
  spec.cardinality = 2 * needed * k;  // exactly balanced: labels are i mod k
  const Dataset pool = ValueOrDie(GenerateSynthetic(spec));
  Rng rng(static_cast<uint64_t>(seed));
  std::vector<std::vector<int32_t>> rows(per_class.size());
  for (int c = 0; c < k; ++c) {
    std::vector<int32_t> shuffled = pool.ClassRows(c);
    rng.Shuffle(&shuffled);
    auto next = shuffled.begin();
    for (size_t p = 0; p < per_class.size(); ++p) {
      rows[p].insert(rows[p].end(), next, next + per_class[p]);
      next += per_class[p];
    }
  }
  std::vector<Dataset> parts;
  for (std::vector<int32_t>& part : rows) {
    std::sort(part.begin(), part.end());
    std::vector<int32_t> labels;
    labels.reserve(part.size());
    for (int32_t row : part) labels.push_back(pool.labels()[static_cast<size_t>(row)]);
    parts.push_back(ValueOrDie(
        Dataset::Create(pool.features().SelectRows(part), std::move(labels), k, spec.name)));
  }
  return parts;
}

MpTrainOptions GmpOptions(const SyntheticSpec& spec, double sigma) {
  MpTrainOptions options;
  options.c = spec.c;
  options.kernel.type = KernelType::kGaussian;
  options.kernel.gamma = spec.gamma;
  options.batch.working_set.ws_size =
      std::clamp(static_cast<int>(1024 * sigma + 0.5), 64, 1024);
  options.batch.working_set.q = options.batch.working_set.ws_size / 2;
  options.shared_cache_bytes = static_cast<size_t>(
      std::max(4096.0, static_cast<double>(2ull << 30) * sigma * sigma));
  options.platt_parallel_candidates = 8;
  return options;
}

// Every simulated device runs its op bodies on one host thread: with two,
// the same Train or Predict varied +-10% from process to process on the
// 4-vCPU x86-64 VM against +-3% with one (README.md, "Host threads"). Host
// concurrency still runs in serve-mnist (two workers) and retrain-k16 (two
// devices).
ExecutorModel Device(double sigma) {
  ExecutorModel model = ExecutorModel::TeslaP100();
  model.launch_overhead_sec *= sigma;
  model.memory_budget_bytes = static_cast<size_t>(std::max(
      1.0, static_cast<double>(model.memory_budget_bytes) * sigma * sigma));
  model.block_size = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(model.block_size) * sigma + 0.5));
  model.host_threads = 1;
  return model;
}

// --- One workload run --------------------------------------------------------

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

struct WorkloadRun {
  MetricSet metrics;
  // Wall milliseconds of each successful op, in blocks spread over the run
  // (see OpSummary): consecutive ops, retrain chains or `mid` serve reps.
  std::vector<std::vector<double>> op_blocks;
  int64_t ops = 0;
  int64_t ops_failed = 0;
  std::vector<Check> checks;

  void StartBlock() { op_blocks.emplace_back(); }
  void AddOp(double ms) {
    if (op_blocks.empty()) StartBlock();
    op_blocks.back().push_back(ms);
  }
  void AddCheck(std::string name, bool passed, std::string detail) {
    checks.push_back(Check{std::move(name), passed, std::move(detail)});
  }
};

struct Context {
  const Flags& flags;
  SpanLog* spans = nullptr;                // null when untraced
  obs::TraceRecorder* runtime = nullptr;   // null when untraced
  uint64_t root = 0;                       // the workload span
};

// Times `fn` (a call into one layer) under a span named `name`.
template <typename Fn>
auto Timed(const Context& ctx, const char* name, uint64_t parent,
           double* seconds, Fn&& fn) {
  ScopedSpan span(ctx.spans, name, parent);
  Stopwatch watch;
  auto result = fn();
  *seconds = watch.ElapsedSeconds();
  return result;
}

struct SimdSnapshot {
  simd::PathStatsSnapshot path[static_cast<int>(simd::SimdPath::kNumPaths)];

  static SimdSnapshot Take() {
    SimdSnapshot s;
    for (int p = 0; p < static_cast<int>(simd::SimdPath::kNumPaths); ++p) {
      s.path[p] = simd::PathStats(static_cast<simd::SimdPath>(p));
    }
    return s;
  }
};

// Adds the SIMD path work done since `before` to the per-op sums.
void RecordSimdSince(const SimdSnapshot& before, MetricSet* m) {
  const SimdSnapshot after = SimdSnapshot::Take();
  auto delta = [&](simd::SimdPath path) {
    const int p = static_cast<int>(path);
    simd::PathStatsSnapshot d;
    d.calls = after.path[p].calls - before.path[p].calls;
    d.elements = after.path[p].elements - before.path[p].elements;
    d.nanos = after.path[p].nanos - before.path[p].nanos;
    return d;
  };
  const struct {
    simd::SimdPath path;
    const char* prefix;
    bool elements;
  } paths[] = {
      {simd::SimdPath::kBatchRowDots, "simd.batch_row_dots", true},
      {simd::SimdPath::kKernelTransform, "simd.kernel_transform", true},
      {simd::SimdPath::kCoupling, "simd.coupling", false},
  };
  for (const auto& p : paths) {
    const simd::PathStatsSnapshot d = delta(p.path);
    const std::string prefix = p.prefix;
    m->Record(prefix + ".calls", static_cast<double>(d.calls));
    if (p.elements) m->Record(prefix + ".elements", static_cast<double>(d.elements));
    m->Record(prefix + ".wall_s", static_cast<double>(d.nanos) * 1e-9);
  }
  m->Record("simd.scatter_row_dots.calls",
            static_cast<double>(delta(simd::SimdPath::kScatterRowDots).calls));
}

// The counters of all of a cluster's devices; peak bytes is the largest.
ExecutorCounters DeviceTotals(const cluster::SimCluster& cluster) {
  ExecutorCounters total;
  for (int d = 0; d < cluster.num_devices(); ++d) {
    const ExecutorCounters& c = cluster.device(d)->counters();
    total.launches += c.launches;
    total.flops += c.flops;
    total.bytes_h2d += c.bytes_h2d;
    total.kernel_values_computed += c.kernel_values_computed;
    total.kernel_values_reused += c.kernel_values_reused;
    total.peak_bytes_in_use = std::max(total.peak_bytes_in_use, c.peak_bytes_in_use);
  }
  return total;
}

void RecordDevice(const ExecutorCounters& before, const ExecutorCounters& after,
                  MetricSet* m) {
  m->Record("device.kernel_values_computed",
            static_cast<double>(after.kernel_values_computed -
                                before.kernel_values_computed));
  m->Record("device.kernel_values_reused",
            static_cast<double>(after.kernel_values_reused -
                                before.kernel_values_reused));
  m->Record("device.launches", static_cast<double>(after.launches - before.launches));
  m->Record("device.flops", after.flops - before.flops);
  m->Record("device.bytes_h2d", after.bytes_h2d - before.bytes_h2d);
  m->Record("device.peak_bytes", static_cast<double>(after.peak_bytes_in_use));
}

void RecordSolver(const SolverStats& s, MetricSet* m) {
  m->Record("solver.iterations", static_cast<double>(s.iterations));
  m->Record("solver.outer_rounds", static_cast<double>(s.outer_rounds));
  m->Record("solver.kernel_rows_computed", static_cast<double>(s.kernel_rows_computed));
  m->Record("solver.kernel_rows_reused", static_cast<double>(s.kernel_rows_reused));
}

// One benchmark-side Predict call: timings, phase sims, kernel values per row.
void RecordPredict(const PredictResult& result, int64_t kernel_values, double wall,
                   MetricSet* m) {
  m->Record("core.predict.call_wall_s", wall);
  m->Record("core.predict.sim_s", result.sim_seconds);
  m->Record("core.predict.decision_values_sim_s",
            result.phases.Get("decision_values"));
  m->Record("core.predict.sigmoid_sim_s", result.phases.Get("sigmoid"));
  m->Record("core.predict.coupling_sim_s", result.phases.Get("coupling"));
  if (result.num_instances > 0) {
    m->Record("core.predict.kernel_values_per_row",
              static_cast<double>(kernel_values) /
                  static_cast<double>(result.num_instances));
  }
}

// Log-loss and error of `probabilities` (row-major, k columns) against
// `truth`; recorded as test_logloss and prob.test_error.
void RecordQuality(std::span<const double> probabilities,
                   std::span<const int32_t> predicted,
                   std::span<const int32_t> truth, int k, WorkloadRun* run) {
  Result<double> logloss = LogLoss(probabilities, truth, k);
  Result<double> error = ErrorRate(predicted, truth);
  run->AddCheck("quality computed on held-out rows", logloss.ok() && error.ok(),
                logloss.ok() ? "" : logloss.status().ToString());
  if (logloss.ok()) run->metrics.Record("test_logloss", *logloss);
  if (error.ok()) run->metrics.Record("prob.test_error", *error);
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- train-mnist -------------------------------------------------------------

// The MNIST proxy's 3000 training and 3000 test rows for --seed.
std::pair<Dataset, Dataset> DrawMnist(const Context& ctx, uint64_t parent,
                                      double* seconds) {
  std::vector<Dataset> parts = Timed(ctx, "data.GenerateSynthetic", parent, seconds,
                                     [&] { return DrawParts(MnistSpec(), ctx.flags.seed,
                                                            {300, 300}); });
  return {std::move(parts[0]), std::move(parts[1])};
}

void RunTrainMnist(const Context& ctx, WorkloadRun* run) {
  const SyntheticSpec spec = MnistSpec();
  Dataset train, test;
  for (int rep = 0; rep < SetupReps(ctx.flags); ++rep) {
    ScopedSpan setup(ctx.spans, "setup", ctx.root);
    double seconds = 0.0;
    std::tie(train, test) = DrawMnist(ctx, setup.id(), &seconds);
    run->metrics.Record("data.generate_s", seconds);
    run->metrics.Record("setup_s", seconds);
  }

  const MpTrainOptions options = GmpOptions(spec, kMnistSigma);
  const int64_t reps = Scaled(ctx.flags, 3.0, 2);
  std::string first_model;
  int64_t identical = 0;
  for (int64_t rep = 0; rep < reps; ++rep) {
    if (rep % BlockSize(reps) == 0) run->StartBlock();
    ScopedSpan rep_span(ctx.spans, StrPrintf("rep %lld", static_cast<long long>(rep)),
                        ctx.root);
    SimExecutor executor(Device(kMnistSigma));
    if (rep == 0) executor.SetSpanRecorder(ctx.runtime);
    MpTrainReport report;
    const SimdSnapshot simd_before = SimdSnapshot::Take();
    double seconds = 0.0;
    Result<MpSvmModel> model =
        Timed(ctx, "core.GmpSvmTrainer::Train", rep_span.id(), &seconds,
              [&] { return GmpSvmTrainer(options).Train(train, &executor, &report); });
    ++run->ops;
    if (!model.ok()) {
      ++run->ops_failed;
      continue;
    }
    run->AddOp(seconds * 1e3);
    RecordSimdSince(simd_before, &run->metrics);
    run->metrics.Record("core.train.wall_s", seconds);
    run->metrics.Record("core.train.sim_s", report.sim_seconds);
    run->metrics.Record("core.train.kernel_values_sim_s",
                        report.phases.Get("kernel_values"));
    run->metrics.Record("core.train.subproblem_sim_s", report.phases.Get("subproblem"));
    run->metrics.Record("core.train.other_sim_s", report.phases.Get("other"));
    run->metrics.Record("core.train.sigmoid_sim_s", report.phases.Get("sigmoid"));
    RecordSolver(report.solver, &run->metrics);
    RecordDevice(ExecutorCounters{}, executor.counters(), &run->metrics);

    const std::string bytes = SerializeModel(*model);
    if (rep > 0) {
      identical += bytes == first_model ? 1 : 0;
      continue;
    }
    first_model = bytes;
    identical = 1;
    // Quality: one test-set Predict, outside the op timing.
    SimExecutor predict_exec(Device(kMnistSigma));
    double predict_seconds = 0.0;
    Result<PredictResult> predicted = Timed(
        ctx, "core.MpSvmPredictor::Predict", rep_span.id(), &predict_seconds, [&] {
          return MpSvmPredictor(&*model).Predict(test.features(), &predict_exec,
                                                 PredictOptions{});
        });
    if (!predicted.ok()) {
      run->AddCheck("test-set predict", false, predicted.status().ToString());
      continue;
    }
    RecordPredict(*predicted, predict_exec.counters().kernel_values_computed,
                  predict_seconds, &run->metrics);
    RecordQuality(predicted->probabilities, predicted->labels, test.labels(),
                  spec.num_classes, run);
  }
  run->AddCheck("model bytes identical across reps",
                identical == reps - run->ops_failed,
                StrPrintf("%lld of %lld reps match rep 0",
                          static_cast<long long>(identical),
                          static_cast<long long>(reps)));
}

// --- predict-largek ----------------------------------------------------------

void RunPredictLargeK(const Context& ctx, WorkloadRun* run) {
  const SyntheticSpec spec = LargeKSpec();
  const MpTrainOptions options = GmpOptions(spec, 1.0);
  Dataset train, test;
  MpSvmModel model;
  for (int rep = 0; rep < SetupReps(ctx.flags); ++rep) {
    ScopedSpan setup(ctx.spans, "setup", ctx.root);
    Stopwatch setup_watch;
    double seconds = 0.0;
    std::vector<Dataset> parts =
        Timed(ctx, "data.GenerateSynthetic", setup.id(), &seconds,
              [&] { return DrawParts(spec, ctx.flags.seed, {16, 32}); });
    train = std::move(parts[0]);
    test = std::move(parts[1]);  // 2048 rows
    run->metrics.Record("data.generate_s", seconds);
    SimExecutor executor(Device(1.0));
    model = ValueOrDie(Timed(ctx, "core.GmpSvmTrainer::Train", setup.id(), &seconds, [&] {
      return GmpSvmTrainer(options).Train(train, &executor, nullptr);
    }));
    run->metrics.Record("setup_s", setup_watch.ElapsedSeconds());
  }

  const int64_t reps = Scaled(ctx.flags, 3.0, 2);
  const MpSvmPredictor predictor(&model);
  SimExecutor executor(Device(1.0));
  std::optional<PredictResult> first;
  int64_t identical = 0;
  for (int64_t rep = 0; rep < reps; ++rep) {
    if (rep % BlockSize(reps) == 0) run->StartBlock();
    ScopedSpan rep_span(ctx.spans, StrPrintf("rep %lld", static_cast<long long>(rep)),
                        ctx.root);
    executor.SetSpanRecorder(rep == 0 ? ctx.runtime : nullptr);
    const ExecutorCounters before = executor.counters();
    const SimdSnapshot simd_before = SimdSnapshot::Take();
    double seconds = 0.0;
    Result<PredictResult> result =
        Timed(ctx, "core.MpSvmPredictor::Predict", rep_span.id(), &seconds, [&] {
          return predictor.Predict(test.features(), &executor, PredictOptions{});
        });
    ++run->ops;
    if (!result.ok()) {
      ++run->ops_failed;
      continue;
    }
    run->AddOp(seconds * 1e3);
    RecordSimdSince(simd_before, &run->metrics);
    RecordDevice(before, executor.counters(), &run->metrics);
    RecordPredict(*result,
                  executor.counters().kernel_values_computed -
                      before.kernel_values_computed,
                  seconds, &run->metrics);
    if (!first.has_value()) {
      RecordQuality(result->probabilities, result->labels, test.labels(),
                    spec.num_classes, run);
      first = std::move(*result);
      identical = 1;
    } else if (SameBytes(result->probabilities, first->probabilities) &&
               result->labels == first->labels) {
      ++identical;
    }
  }
  executor.SetSpanRecorder(nullptr);
  run->AddCheck("probabilities byte-identical across reps",
                identical == reps - run->ops_failed,
                StrPrintf("%lld of %lld reps match rep 0",
                          static_cast<long long>(identical),
                          static_cast<long long>(reps)));
}

// --- serve-mnist -------------------------------------------------------------

// Fixed offered rates: 0.25 / 0.5 / 0.8 of the highest rate a 4-vCPU
// x86-64 VM sustained under the ladder's limits (README.md, "Serve rates").
constexpr double kServeRates[] = {4000.0, 8000.0, 12800.0};
constexpr const char* kServeRateNames[] = {"low", "mid", "high"};
// The fixed rates run kServeReps times, interleaved (low, mid, high, low,
// ...), each on a fresh server; a rate's percentiles are medians over its
// repetitions, so one host stall moves one repetition rather than the
// reported number.
constexpr int kServeReps = 5;
// Rate ladder: from `mid` up in x1.1 steps, then two bisections between the
// last passing and the first failing rate. A rate passes when its p99 is
// within the limit, no request fails, and the achieved rate is
// at least 0.97 of the offered one, in any of kLadderAttempts attempts.
constexpr double kLadderFactor = 1.1;
constexpr int kLadderMaxSteps = 16;
constexpr int kLadderAttempts = 3;
constexpr int kLadderBisections = 2;
constexpr double kLadderP99LimitMs = 5.0;
constexpr double kLadderMinAchieved = 0.97;
constexpr std::chrono::microseconds kDispatchSpin{200};

struct Served {
  std::vector<double> latency_ms;  // scheduled send -> completion callback
  std::vector<double> queue_ms;    // admission -> batch formation
  std::vector<double> service_ms;  // batch formation -> completion
  std::vector<double> lag_ms;      // how late the dispatcher submitted
  int64_t submitted = 0;
  int64_t failed = 0;  // refused at admission or answered with an error
  int64_t mismatched = 0;  // probabilities differing from the offline Predict
  double achieved_rps = 0.0;
  ServeStatsSnapshot snap;
  std::vector<double> probabilities;  // completed requests, row-major
  std::vector<int32_t> labels;
  std::vector<int32_t> truth;
};

// One open-loop phase: a single dispatcher submits `requests` test rows at
// `rate` on a fixed schedule, never waiting for completions, to a fresh
// server. Every response is compared byte for byte with `offline`. With
// `request_spans`, each request gets a span under `parent`.
Served RunOpenLoop(ModelRegistry* registry, const ServeOptions& options,
                   const Dataset& test, const PredictResult& offline, double rate,
                   int64_t requests, SpanLog* request_spans, uint64_t parent,
                   uint64_t* next_request_id) {
  Served out;
  InferenceServer server(registry, options);
  GMP_CHECK_OK(server.Start());
  struct Slot {
    MonotonicTime scheduled, sent, admitted, done;
    uint64_t request_id = 0;
    int64_t row = 0;
    std::optional<std::future<Result<PredictResponse>>> future;
  };
  std::vector<Slot> slots(static_cast<size_t>(requests));
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  const MonotonicTime start = MonotonicNow() + std::chrono::milliseconds(2);
  for (int64_t i = 0; i < requests; ++i) {
    Slot& slot = slots[static_cast<size_t>(i)];
    slot.scheduled = start + std::chrono::duration_cast<MonotonicClock::duration>(
                                 interval * static_cast<double>(i));
    // Sleep to just short of the send time, then spin: a sleeping thread
    // wakes up to a few hundred microseconds late, which would be charged to
    // the server as latency.
    std::this_thread::sleep_until(slot.scheduled - kDispatchSpin);
    while (MonotonicNow() < slot.scheduled) {
    }
    slot.sent = MonotonicNow();
    slot.request_id = (*next_request_id)++;
    // Requests walk the test rows across phases, so every row is served.
    slot.row = static_cast<int64_t>(slot.request_id - 1) % test.size();
    Slot* target = &slot;
    auto submitted = server.Submit(
        test.features().RowIndices(slot.row), test.features().RowValues(slot.row),
        Deadline::Infinite(), "",
        [target](const Result<PredictResponse>&) { target->done = MonotonicNow(); });
    slot.admitted = MonotonicNow();
    ++out.submitted;
    if (!submitted.ok()) {
      ++out.failed;
      continue;
    }
    slot.future = std::move(*submitted);
  }

  const int k = offline.num_classes;
  MonotonicTime last_done = start;
  for (int64_t i = 0; i < requests; ++i) {
    Slot& slot = slots[static_cast<size_t>(i)];
    out.lag_ms.push_back(SecondsBetween(slot.scheduled, slot.sent) * 1e3);
    if (!slot.future.has_value()) continue;
    Result<PredictResponse> response = slot.future->get();
    if (!response.ok()) {
      ++out.failed;
      continue;
    }
    const double* expected =
        offline.probabilities.data() + static_cast<size_t>(slot.row) * k;
    if (response->probabilities.size() != static_cast<size_t>(k) ||
        std::memcmp(response->probabilities.data(), expected, k * sizeof(double)) != 0) {
      ++out.mismatched;
    }
    last_done = std::max(last_done, slot.done);
    out.latency_ms.push_back(SecondsBetween(slot.scheduled, slot.done) * 1e3);
    out.queue_ms.push_back(response->queue_seconds * 1e3);
    out.service_ms.push_back((response->total_seconds - response->queue_seconds) * 1e3);
    out.probabilities.insert(out.probabilities.end(), response->probabilities.begin(),
                             response->probabilities.end());
    out.labels.push_back(response->label);
    out.truth.push_back(test.labels()[static_cast<size_t>(slot.row)]);
    if (request_spans != nullptr) {
      const uint64_t span = request_spans->Add("serve.request", parent, slot.request_id,
                                               slot.scheduled, slot.done);
      request_spans->Add("serve.InferenceServer::Submit", span, slot.request_id,
                         slot.sent, slot.admitted);
    }
  }
  GMP_CHECK_OK(server.Shutdown());
  out.snap = server.stats().Snapshot();
  const double wall = SecondsBetween(start, last_done);
  out.achieved_rps =
      wall > 0.0 ? static_cast<double>(out.latency_ms.size()) / wall : 0.0;
  return out;
}

void RunServeMnist(const Context& ctx, WorkloadRun* run) {
  const SyntheticSpec spec = MnistSpec();
  const MpTrainOptions options = GmpOptions(spec, kMnistSigma);
  Dataset train, test;
  ModelRegistry registry;
  for (int rep = 0; rep < SetupReps(ctx.flags); ++rep) {
    ScopedSpan setup(ctx.spans, "setup", ctx.root);
    Stopwatch setup_watch;
    double seconds = 0.0;
    std::tie(train, test) = DrawMnist(ctx, setup.id(), &seconds);
    run->metrics.Record("data.generate_s", seconds);
    SimExecutor executor(Device(kMnistSigma));
    MpSvmModel model =
        ValueOrDie(Timed(ctx, "core.GmpSvmTrainer::Train", setup.id(), &seconds, [&] {
          return GmpSvmTrainer(options).Train(train, &executor, nullptr);
        }));
    ValueOrDie(Timed(ctx, "serve.ModelRegistry::Register", setup.id(), &seconds,
                     [&] { return registry.Register("default", std::move(model)); }));
    run->metrics.Record("setup_s", setup_watch.ElapsedSeconds());
  }

  // Offline reference for the byte-equality check.
  const ModelHandle handle = ValueOrDie(registry.Get("default"));
  SimExecutor offline_exec(Device(kMnistSigma));
  double offline_seconds = 0.0;
  const PredictResult offline = ValueOrDie(
      Timed(ctx, "core.MpSvmPredictor::Predict", ctx.root, &offline_seconds, [&] {
        return MpSvmPredictor(handle.model.get())
            .Predict(test.features(), &offline_exec, PredictOptions{});
      }));
  RecordPredict(offline, offline_exec.counters().kernel_values_computed,
                offline_seconds, &run->metrics);

  ServeOptions serve;
  serve.num_workers = 2;
  serve.executor_model = Device(kMnistSigma);
  const int reps = ctx.flags.smoke ? 1 : kServeReps;
  const int64_t per_rep = Scaled(ctx.flags, 120.0, 100);
  const int64_t per_step = Scaled(ctx.flags, 300.0, 100);
  // Room for a whole phase: when a host slowdown overloads the `high` rate,
  // the backlog shows as latency instead of rejected requests.
  serve.queue_capacity = static_cast<size_t>(std::max(per_rep, per_step));
  const int ladder_steps = ctx.flags.smoke ? 2 : kLadderMaxSteps;

  uint64_t next_request_id = 1;
  int64_t mismatched = 0;
  std::vector<double> lag_ms;
  std::vector<double> probabilities;
  std::vector<int32_t> labels, truth;
  const SimdSnapshot simd_before = SimdSnapshot::Take();
  // Per rate, one entry per rep.
  std::vector<double> p50[3], p99[3], queue_p50[3], queue_p99[3], service_p50[3], batch[3];
  for (int rep = 0; rep < reps; ++rep) {
    for (int r = 0; r < 3; ++r) {
      const std::string name = kServeRateNames[r];
      ScopedSpan phase(ctx.spans, StrPrintf("rep %d %s", rep, name.c_str()), ctx.root);
      // Traces keep the first repetition's requests, which bounds their size.
      serve.trace = r == 0 && rep == 0 ? ctx.runtime : nullptr;
      Served s = RunOpenLoop(&registry, serve, test, offline, kServeRates[r], per_rep,
                             rep == 0 ? ctx.spans : nullptr, phase.id(),
                             &next_request_id);
      run->ops += s.submitted;
      run->ops_failed += s.failed;
      mismatched += s.mismatched;
      run->metrics.Record("serve.max_queue_depth",
                          static_cast<double>(s.snap.max_queue_depth));
      lag_ms.insert(lag_ms.end(), s.lag_ms.begin(), s.lag_ms.end());
      probabilities.insert(probabilities.end(), s.probabilities.begin(),
                           s.probabilities.end());
      labels.insert(labels.end(), s.labels.begin(), s.labels.end());
      truth.insert(truth.end(), s.truth.begin(), s.truth.end());
      p50[r].push_back(Median(s.latency_ms));
      p99[r].push_back(Percentile(s.latency_ms, 99.0));
      queue_p50[r].push_back(Median(s.queue_ms));
      queue_p99[r].push_back(Percentile(s.queue_ms, 99.0));
      service_p50[r].push_back(Median(s.service_ms));
      batch[r].push_back(s.snap.mean_batch_size);
      if (name == "mid") run->op_blocks.push_back(std::move(s.latency_ms));
    }
  }
  for (int r = 0; r < 3; ++r) {
    const std::string name = kServeRateNames[r];
    run->metrics.Record("serve.p50_ms." + name, Median(p50[r]));
    run->metrics.Record("serve.p99_ms." + name, Median(p99[r]));
    run->metrics.Record("serve.queue_wait_p50_ms." + name, Median(queue_p50[r]));
    run->metrics.Record("serve.queue_wait_p99_ms." + name, Median(queue_p99[r]));
    run->metrics.Record("serve.service_p50_ms." + name, Median(service_p50[r]));
    run->metrics.Record("serve.mean_batch_size." + name, Median(batch[r]));
  }
  RecordSimdSince(simd_before, &run->metrics);
  serve.trace = nullptr;

  const auto sustains = [&](double rate) {
    for (int attempt = 0; attempt < kLadderAttempts; ++attempt) {
      ScopedSpan span(ctx.spans, StrPrintf("ladder %.0f rps", rate), ctx.root);
      Served s = RunOpenLoop(&registry, serve, test, offline, rate, per_step, nullptr,
                             span.id(), &next_request_id);
      mismatched += s.mismatched;
      if (s.failed == 0 &&
          Percentile(s.latency_ms, 99.0) <= kLadderP99LimitMs &&
          s.achieved_rps >= kLadderMinAchieved * rate) {
        return true;
      }
    }
    return false;
  };
  double max_rps = 0.0;
  double failing_rps = 0.0;
  for (int step = 0; step < ladder_steps && failing_rps == 0.0; ++step) {
    const double rate = kServeRates[1] * std::pow(kLadderFactor, step);
    (sustains(rate) ? max_rps : failing_rps) = rate;
  }
  for (int i = 0; i < kLadderBisections && max_rps > 0.0 && failing_rps > 0.0; ++i) {
    const double rate = std::sqrt(max_rps * failing_rps);
    (sustains(rate) ? max_rps : failing_rps) = rate;
  }
  run->metrics.Record("serve.max_rps", max_rps);
  run->metrics.Record("serve.dispatch_lag_p99_ms", Percentile(lag_ms, 99.0));
  RecordQuality(probabilities, labels, truth, spec.num_classes, run);
  run->AddCheck("served probabilities byte-equal to offline Predict", mismatched == 0,
                StrPrintf("%lld mismatched responses", static_cast<long long>(mismatched)));
}

// --- retrain-k16 -------------------------------------------------------------

constexpr int64_t kBaseRowsPerClass = 160;
constexpr int64_t kCanaryRowsPerClass = 16;  // 256 canary rows at k = 16
constexpr int64_t kHoldoutRowsPerClass = 128;
constexpr int64_t kRowsPerCycle = 64;
// A chain is one round over the 16 classes from the set-up model. Every
// chain replays the same update stream, so chains do identical work and
// must end in byte-identical models.
constexpr int64_t kCyclesPerChain = 16;

// The update for one cycle: the next kRowsPerCycle stream rows of class
// `cycle mod k`, against `current`.
online::DatasetDelta CycleDelta(const Dataset& current, const Dataset& stream,
                                int64_t cycle) {
  const int k = stream.num_classes();
  const int cls = static_cast<int>(cycle % k);
  online::DatasetDelta delta;
  delta.base_fingerprint = online::DatasetFingerprint(current);
  delta.num_classes = k;
  const std::vector<int32_t>& class_rows = stream.ClassRows(cls);
  const int64_t first = kRowsPerCycle * (cycle / k);
  for (int64_t i = first; i < first + kRowsPerCycle; ++i) {
    const int32_t row = class_rows[static_cast<size_t>(i)];
    online::DeltaOp op;
    op.label = cls;
    const auto indices = stream.features().RowIndices(row);
    const auto values = stream.features().RowValues(row);
    op.indices.assign(indices.begin(), indices.end());
    op.values.assign(values.begin(), values.end());
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

void RunRetrainK16(const Context& ctx, WorkloadRun* run) {
  const SyntheticSpec spec = RetrainSpec();
  const int k = spec.num_classes;
  const int64_t chains = Scaled(ctx.flags, 0.6, 1);
  const int64_t cycles = ctx.flags.smoke ? 3 : kCyclesPerChain;
  const MpTrainOptions options = GmpOptions(spec, 1.0);

  // Per class: the initial training rows, the canary rows, the held-out
  // rows the final model's quality is measured on, and the update stream
  // that arrives kRowsPerCycle rows at a time.
  Dataset base, canary, holdout, stream;
  MpSvmModel initial;
  for (int rep = 0; rep < SetupReps(ctx.flags); ++rep) {
    ScopedSpan setup(ctx.spans, "setup", ctx.root);
    Stopwatch setup_watch;
    double seconds = 0.0;
    std::vector<Dataset> parts =
        Timed(ctx, "data.GenerateSynthetic", setup.id(), &seconds, [&] {
          return DrawParts(spec, ctx.flags.seed,
                           {kBaseRowsPerClass, kCanaryRowsPerClass, kHoldoutRowsPerClass,
                            kRowsPerCycle * ((cycles + k - 1) / k)});
        });
    base = std::move(parts[0]);
    canary = std::move(parts[1]);
    holdout = std::move(parts[2]);
    stream = std::move(parts[3]);
    run->metrics.Record("data.generate_s", seconds);
    SimExecutor executor(Device(1.0));
    initial = ValueOrDie(Timed(ctx, "core.GmpSvmTrainer::Train", setup.id(), &seconds, [&] {
      return GmpSvmTrainer(options).Train(base, &executor, nullptr);
    }));
    run->metrics.Record("setup_s", setup_watch.ElapsedSeconds());
  }

  online::WarmRetrainOptions retrain;
  retrain.train = options;
  cluster::SimCluster devices = cluster::SimCluster::Homogeneous(2, Device(1.0));
  SimExecutor canary_exec(Device(1.0));
  ModelRegistry registry;
  int64_t carried_changed = 0, carried_total = 0, wrong_retrain_count = 0;
  int64_t identical_chains = 0;
  std::string first_final;
  for (int64_t chain = 0; chain < chains; ++chain) {
    run->StartBlock();
    ValueOrDie(registry.Register("default", MpSvmModel(initial)));
    Dataset current = base;
    int64_t cycle = 0;
    for (; cycle < cycles; ++cycle) {
      ScopedSpan rep_span(ctx.spans,
                          StrPrintf("chain %lld cycle %lld", static_cast<long long>(chain),
                                    static_cast<long long>(cycle)),
                          ctx.root);
      devices.SetSpanRecorder(chain == 0 && cycle == 0 ? ctx.runtime : nullptr);
      const online::DatasetDelta delta = CycleDelta(current, stream, cycle);
      const ModelHandle incumbent = ValueOrDie(registry.Get("default"));
      const ExecutorCounters device_before = DeviceTotals(devices);
      const int64_t canary_kv_before = canary_exec.counters().kernel_values_computed;
      const SimdSnapshot simd_before = SimdSnapshot::Take();

      Stopwatch cycle_watch;
      double apply_s = 0, checkpoints_s = 0, retrain_s = 0, canary_s = 0, swap_s = 0;
      ++run->ops;
      Result<Dataset> drifted = Timed(ctx, "online.ApplyDelta", rep_span.id(), &apply_s,
                                      [&] { return online::ApplyDelta(current, delta); });
      if (!drifted.ok()) break;
      const std::vector<PairCheckpoint> previous =
          Timed(ctx, "online.CheckpointsFromModel", rep_span.id(), &checkpoints_s,
                [&] { return online::CheckpointsFromModel(*incumbent.model); });
      const std::vector<int> affected = online::AffectedClasses(delta);
      online::WarmRetrainReport report;
      Result<MpSvmModel> candidate =
          Timed(ctx, "online.WarmRetrain", rep_span.id(), &retrain_s, [&] {
            return online::WarmRetrain(*drifted, previous, affected, retrain, &devices,
                                       &report);
          });
      if (!candidate.ok()) break;
      Result<PredictResult> canary_result =
          Timed(ctx, "core.MpSvmPredictor::Predict", rep_span.id(), &canary_s, [&] {
            return MpSvmPredictor(&*candidate).Predict(canary.features(), &canary_exec,
                                                      PredictOptions{});
          });
      if (!canary_result.ok()) break;
      Result<int64_t> version =
          Timed(ctx, "serve.ModelRegistry::Register", rep_span.id(), &swap_s,
                [&] { return registry.Register("default", std::move(*candidate)); });
      const double cycle_seconds = cycle_watch.ElapsedSeconds();
      if (!version.ok()) break;
      run->AddOp(cycle_seconds * 1e3);
      current = std::move(*drifted);

      MetricSet& m = run->metrics;
      m.Record("online.apply_delta_s", apply_s);
      m.Record("online.checkpoints_s", checkpoints_s);
      m.Record("online.warm_retrain_s", retrain_s);
      m.Record("online.canary_predict_s", canary_s);
      m.Record("serve.swap_s", swap_s);
      m.Record("online.pairs_retrained", static_cast<double>(report.pairs_retrained));
      m.Record("online.pairs_carried", static_cast<double>(report.pairs_carried));
      m.Record("online.warm_seeded_rows", static_cast<double>(report.warm_seeded_rows));
      SolverStats solver;
      double sigmoid_s = 0.0;
      for (const PairTrainOutcome& outcome : report.retrained) {
        solver.Merge(outcome.stats);
        sigmoid_s += outcome.sigmoid_seconds;
      }
      m.Record("core.train.wall_s", retrain_s);
      m.Record("core.train.sim_s", report.makespan_sim_seconds);
      m.Record("core.train.kernel_values_sim_s", solver.phases.Get("kernel_values"));
      m.Record("core.train.subproblem_sim_s", solver.phases.Get("subproblem"));
      m.Record("core.train.other_sim_s", solver.phases.Get("other"));
      m.Record("core.train.sigmoid_sim_s", sigmoid_s);
      RecordSolver(solver, &m);
      RecordDevice(device_before, DeviceTotals(devices), &m);
      RecordSimdSince(simd_before, &m);
      RecordPredict(*canary_result,
                    canary_exec.counters().kernel_values_computed - canary_kv_before,
                    canary_s, &m);

      // One class changed, so exactly k - 1 pairs are re-solved and every
      // other pair of the registered model is carried byte for byte.
      if (report.pairs_retrained != k - 1) ++wrong_retrain_count;
      const std::vector<PairCheckpoint> registered =
          online::CheckpointsFromModel(*ValueOrDie(registry.Get("default")).model);
      std::vector<bool> retrained(previous.size(), false);
      for (size_t p : online::AffectedPairIndices(current, affected, previous)) {
        retrained[p] = true;
      }
      for (size_t p = 0; p < previous.size(); ++p) {
        if (retrained[p]) continue;
        ++carried_total;
        if (SerializePairCheckpoint(registered[p]) != SerializePairCheckpoint(previous[p])) {
          ++carried_changed;
        }
      }
    }
    if (cycle < cycles) {
      ++run->ops_failed;  // the chain stops at its failed cycle
      continue;
    }
    const std::string final_model = SerializeModel(*ValueOrDie(registry.Get("default")).model);
    if (chain == 0) first_final = final_model;
    identical_chains += final_model == first_final ? 1 : 0;
  }
  devices.SetSpanRecorder(nullptr);
  const ModelHandle final_model = ValueOrDie(registry.Get("default"));
  Result<PredictResult> quality = MpSvmPredictor(final_model.model.get())
                                      .Predict(holdout.features(), &canary_exec,
                                               PredictOptions{});
  if (quality.ok()) {
    RecordQuality(quality->probabilities, quality->labels, holdout.labels(), k, run);
  } else {
    run->AddCheck("held-out predict", false, quality.status().ToString());
  }
  run->AddCheck("carried pairs byte-identical after each warm retrain",
                carried_changed == 0 && carried_total > 0,
                StrPrintf("%lld of %lld carried pairs changed",
                          static_cast<long long>(carried_changed),
                          static_cast<long long>(carried_total)));
  run->AddCheck("each cycle re-solves exactly k-1 pairs", wrong_retrain_count == 0,
                StrPrintf("%lld cycles differ", static_cast<long long>(wrong_retrain_count)));
  run->AddCheck("final model bytes identical across chains",
                identical_chains == chains - run->ops_failed,
                StrPrintf("%lld of %lld chains match chain 0",
                          static_cast<long long>(identical_chains),
                          static_cast<long long>(chains)));
}

// --- Main --------------------------------------------------------------------

struct Workload {
  const char* name;
  void (*run)(const Context&, WorkloadRun*);
};

constexpr Workload kWorkloads[] = {
    {"train-mnist", RunTrainMnist},
    {"predict-largek", RunPredictLargeK},
    {"serve-mnist", RunServeMnist},
    {"retrain-k16", RunRetrainK16},
};

// A workload's op timings. `best` (op_ms) is the lowest of the blocks'
// medians: blocks are spread over the run, and interference from the rest
// of the host only ever slows an op, so the least-disturbed block is the
// steadiest estimate of what the code costs (README.md, "op_ms"). The median
// and tail of all samples are reported beside it.
struct OpSummary {
  double best = 0.0;
  double p50 = 0.0;
  Tail tail;
  int64_t n = 0;

  static OpSummary Of(const WorkloadRun& run) {
    OpSummary s;
    std::vector<double> all;
    for (const std::vector<double>& block : run.op_blocks) {
      if (block.empty()) continue;
      const double median = Median(block);
      s.best = all.empty() ? median : std::min(s.best, median);
      all.insert(all.end(), block.begin(), block.end());
    }
    s.p50 = Median(all);
    s.tail = TailOf(all);
    s.n = static_cast<int64_t>(all.size());
    return s;
  }
};

// Runs one workload and derives the end-to-end and ratio metrics.
WorkloadRun RunOnce(const Flags& flags, const Workload& workload, SpanLog* spans,
                    obs::TraceRecorder* runtime) {
  WorkloadRun run;
  Context ctx{flags, spans, runtime, 0};
  ScopedSpan root(spans, std::string("workload ") + workload.name, 0);
  ctx.root = root.id();
  workload.run(ctx, &run);

  MetricSet& m = run.metrics;
  m.Record("op_ms", OpSummary::Of(run).best);
  const auto ratio = [&](const char* part, const char* other) {
    const double a = m.Resolve(part, run.ops), b = m.Resolve(other, run.ops);
    return a + b > 0.0 ? a / (a + b) : 0.0;
  };
  m.Record("solver.row_reuse_ratio",
           ratio("solver.kernel_rows_reused", "solver.kernel_rows_computed"));
  m.Record("device.kernel_reuse_ratio",
           ratio("device.kernel_values_reused", "device.kernel_values_computed"));
  const double sim = m.Resolve("core.train.sim_s", run.ops);
  m.Record("core.train.wall_per_sim",
           sim > 0.0 ? m.Resolve("core.train.wall_s", run.ops) / sim : 0.0);
  return run;
}

bool AllPassed(const WorkloadRun& run) {
  return std::all_of(run.checks.begin(), run.checks.end(),
                     [](const Check& c) { return c.passed; });
}

// The catalog as JSON: end-to-end metrics from `e2e`, per-layer ones from
// `layers`. op_ms also carries the pooled median and tail, and the sample
// and block counts.
std::string MetricsJson(const WorkloadRun& e2e, const WorkloadRun& layers) {
  const OpSummary ops = OpSummary::Of(e2e);
  std::string out = "{";
  bool first = true;
  for (const MetricDef& def : Catalog()) {
    const WorkloadRun& source = def.end_to_end ? e2e : layers;
    const double value = source.metrics.Resolve(def.name, source.ops);
    const std::string_view name = def.name;
    std::string extra;
    if (name == "setup_s") {
      extra = StrPrintf(", \"n\": %lld",
                        static_cast<long long>(source.metrics.Count("setup_s")));
    } else if (name == "op_ms") {
      extra = StrPrintf(", \"p50_ms\": %.17g, \"tail_ms\": %.17g, "
                        "\"tail_percentile\": %.4f, \"n\": %lld, \"blocks\": %zu",
                        ops.p50, ops.tail.value, ops.tail.pct,
                        static_cast<long long>(ops.n), e2e.op_blocks.size());
    }
    out += StrPrintf("%s\n    %s: {\"value\": %.17g, \"unit\": \"%s\", "
                     "\"end_to_end\": %s%s}",
                     first ? "" : ",", JsonString(def.name).c_str(), value, def.unit,
                     def.end_to_end ? "true" : "false", extra.c_str());
    first = false;
  }
  return out + "\n  }";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "error: %s\n%s", error.c_str(), kUsage);
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (flags.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s'\n%s", flags.workload.c_str(),
                 kUsage);
    return 2;
  }

  const WorkloadRun plain = RunOnce(flags, *workload, nullptr, nullptr);
  std::optional<WorkloadRun> traced;
  bool files_ok = true;
  if (!flags.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(flags.trace_dir, ec);
    obs::TraceRecorder runtime;
    SpanLog spans(MonotonicNow());
    traced = RunOnce(flags, *workload, &spans, &runtime);
    const double untraced = plain.metrics.Resolve("op_ms", plain.ops);
    traced->metrics.Record(
        "trace.overhead",
        untraced > 0.0 ? traced->metrics.Resolve("op_ms", traced->ops) / untraced - 1.0
                       : 0.0);

    // One Chrome trace: the runtime's device (pid 0) and host (pid 1) rows
    // plus the benchmark's spans (pid 2), which share the host time axis.
    std::string chrome = runtime.ToChromeJson();
    const size_t close = chrome.rfind(']');
    const bool empty = chrome.compare(close - 1, 1, "[") == 0;
    chrome.insert(close, (empty ? "" : ",") + spans.ChromeEvents());
    std::string layers = StrPrintf(
        "{\n  \"workload\": \"%s\",\n  \"seed\": %d,\n  \"spans\": %zu,\n"
        "  \"self_time_s\": {",
        workload->name, flags.seed, spans.size());
    bool first = true;
    for (const auto& [layer, seconds] : spans.SelfSeconds()) {
      layers += StrPrintf("%s\"%s\": %.9g", first ? "" : ", ", layer.c_str(), seconds);
      first = false;
    }
    layers += "},\n  \"metrics\": " + MetricsJson(plain, *traced) + "\n}\n";
    files_ok = WriteFile(flags.trace_dir + "/trace.json", chrome) &&
               WriteFile(flags.trace_dir + "/layers.json", layers);
  }

  const WorkloadRun& layers = traced.has_value() ? *traced : plain;
  std::vector<Check> checks = plain.checks;
  if (traced.has_value()) {
    for (const Check& c : traced->checks) {
      checks.push_back(Check{"traced run: " + c.name, c.passed, c.detail});
    }
  }
  const bool correct = AllPassed(plain) && (!traced || AllPassed(*traced)) && files_ok;
  const int64_t ops = plain.ops + (traced ? traced->ops : 0);
  const int64_t ops_failed = plain.ops_failed + (traced ? traced->ops_failed : 0);

  std::printf("workload %s  seed %d  seconds %g%s\n", workload->name, flags.seed,
              flags.seconds, traced ? "  (traced)" : "");
  for (const MetricDef& def : Catalog()) {
    const WorkloadRun& source = def.end_to_end ? plain : layers;
    std::printf("  %-36s %16.6g %s%s\n", def.name,
                source.metrics.Resolve(def.name, source.ops), def.unit,
                def.end_to_end ? "  [end-to-end]" : "");
  }
  for (const Check& c : checks) {
    std::printf("  check %-52s %s %s\n", c.name.c_str(), c.passed ? "ok" : "FAILED",
                c.detail.c_str());
  }
  std::printf("  ops %lld  ops_failed %lld  correct %s\n", static_cast<long long>(ops),
              static_cast<long long>(ops_failed), correct ? "true" : "false");

  if (!flags.json_out.empty()) {
    std::string json = StrPrintf(
        "{\n  \"workload\": \"%s\",\n  \"seed\": %d,\n  \"seconds\": %.17g,\n"
        "  \"smoke\": %s,\n  \"traced\": %s,\n  \"correct\": %s,\n  \"ops\": %lld,\n"
        "  \"ops_failed\": %lld,\n  \"checks\": [",
        workload->name, flags.seed, flags.seconds, flags.smoke ? "true" : "false",
        traced ? "true" : "false", correct ? "true" : "false",
        static_cast<long long>(ops), static_cast<long long>(ops_failed));
    for (size_t i = 0; i < checks.size(); ++i) {
      json += StrPrintf("%s\n    {\"name\": %s, \"passed\": %s, \"detail\": %s}",
                        i == 0 ? "" : ",", JsonString(checks[i].name).c_str(),
                        checks[i].passed ? "true" : "false",
                        JsonString(checks[i].detail).c_str());
    }
    json += "\n  ],\n  \"metrics\": " + MetricsJson(plain, layers) + "\n}\n";
    if (!WriteFile(flags.json_out, json)) return 1;
  }
  return correct && ops_failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gmpsvm::e2e

int main(int argc, char** argv) { return gmpsvm::e2e::Main(argc, argv); }
