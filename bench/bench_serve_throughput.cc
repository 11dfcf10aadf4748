// Serving benchmark: sustained throughput and tail latency of the
// micro-batching InferenceServer (src/serve) versus unbatched serving
// (max_batch_size = 1) on Table-2 proxy datasets.
//
// Two load shapes:
//   * closed loop — K client threads issue synchronous Predict() calls
//     back-to-back; concurrency K > workers keeps a backlog, so the
//     micro-batcher can coalesce. Sweeps max_batch_size.
//   * open loop — a dispatcher submits at a fixed arrival rate regardless
//     of completions (the "users do not wait" model). Sweeps the batch
//     window (max_queue_delay) at a rate near the unbatched capacity,
//     showing the window trading p50 for throughput headroom.
//
// A third section exercises the multi-tenant fleet (src/fleet): four
// Zipf-weighted tenants (weight 1/rank^1.2) over two models that share
// support vectors, served open-loop through one FleetServer. It reports
// per-tenant percentiles, proves the cross-tenant SV store reduces kernel
// evaluations while keeping every probability byte-identical to the
// sharing-off run, and shows quota/priority shedding holding the hot
// tenant's p99 under 2x overload. --json=<path> dumps the fleet section
// machine-readably.
//
// A fourth section is the large-k cascade workload: one k = 64 model
// (2016 pairwise SVMs) served closed-loop with the exact predictor and with
// the DCSVM-style elimination cascade (docs/cascade.md). The served cascade
// p50 must be at most 0.75x the exact p50 at k = 64, --cascade=exact must
// stay byte-identical to the default predictor, and the offline fallback
// rate is reported. Both arms are also timed offline at the serve shape, so
// the served ratio can be read against the predictor's own.
// --largek-json=<path> dumps this section machine-readably; --largek-only
// skips the earlier sections (CI perf-smoke).
//
// Defaults to the Connect-4 proxy for a quick run; use
// --datasets=MNIST,News20 (etc.) for the other multi-class proxies.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/predictor.h"
#include "fleet/fleet_server.h"
#include "serve/server.h"

using namespace gmpsvm;         // NOLINT
using namespace gmpsvm::bench;  // NOLINT

namespace {

struct LoadResult {
  double wall_seconds = 0.0;
  double achieved_rps = 0.0;
  ServeStatsSnapshot snap;
};

std::string Ms(double seconds) { return StrPrintf("%.2f", seconds * 1e3); }

// K threads, each issuing synchronous requests back-to-back over the test
// rows. Returns bench-measured wall throughput plus the server's snapshot.
LoadResult RunClosedLoop(ModelRegistry* registry, const CsrMatrix& rows,
                         const ServeOptions& options, int clients,
                         int per_client) {
  InferenceServer server(registry, options);
  GMP_CHECK_OK(server.Start());
  Stopwatch wall;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      for (int r = 0; r < per_client; ++r) {
        const int64_t row = (c * per_client + r) % rows.rows();
        auto response =
            server.Predict(rows.RowIndices(row), rows.RowValues(row));
        GMP_CHECK_OK(response.status());
      }
    });
  }
  for (auto& t : pool) t.join();
  LoadResult result;
  result.wall_seconds = wall.ElapsedSeconds();
  result.snap = server.stats().Snapshot();
  result.achieved_rps =
      static_cast<double>(result.snap.completed) / result.wall_seconds;
  GMP_CHECK_OK(server.Shutdown());
  return result;
}

// One dispatcher submitting at `rate_rps` on a fixed schedule; responses are
// collected afterwards. Overflowed submissions count as rejected.
LoadResult RunOpenLoop(ModelRegistry* registry, const CsrMatrix& rows,
                       const ServeOptions& options, double rate_rps,
                       int total_requests) {
  InferenceServer server(registry, options);
  GMP_CHECK_OK(server.Start());
  const auto interval = std::chrono::duration<double>(1.0 / rate_rps);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<Result<PredictResponse>>> futures;
  futures.reserve(static_cast<size_t>(total_requests));
  for (int r = 0; r < total_requests; ++r) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    interval * r));
    const int64_t row = r % rows.rows();
    auto submitted = server.Submit(rows.RowIndices(row), rows.RowValues(row));
    if (submitted.ok()) futures.push_back(std::move(*submitted));
  }
  for (auto& f : futures) GMP_CHECK_OK(f.get().status());
  LoadResult result;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.snap = server.stats().Snapshot();
  result.achieved_rps =
      static_cast<double>(result.snap.completed) / result.wall_seconds;
  GMP_CHECK_OK(server.Shutdown());
  return result;
}

// ---------------------------------------------------------------------------
// Multi-tenant fleet section.

// One precomputed request: which tenant issues it and which test row it
// carries. Precomputing the sequence once makes the sharing-on and
// sharing-off runs submit literally the same requests in the same order.
struct FleetWorkItem {
  size_t tenant;
  int64_t row;
};

struct FleetLoadResult {
  double wall_seconds = 0.0;
  uint64_t shed = 0;      // kUnavailable at Submit (quota / overload)
  uint64_t rejected = 0;  // kResourceExhausted at Submit (queues full)
  // Probabilities per workload index; empty where the request was shed,
  // rejected, or failed. Byte-compared across runs.
  std::vector<std::vector<double>> probs;
  fleet::FleetStatsSnapshot snap;
};

// Replays `workload` through a fresh fleet built from `base`: tenant i runs
// models[i % models.size()]. rate_rps > 0 paces submissions open-loop on a
// fixed schedule; 0 submits as fast as the dispatcher can (still open loop —
// the dispatcher never waits for completions).
FleetLoadResult RunFleet(const fleet::FleetOptions& base,
                         const std::vector<fleet::TenantSpec>& tenants,
                         const std::vector<MpSvmModel>& models,
                         const CsrMatrix& rows,
                         const std::vector<FleetWorkItem>& workload,
                         double rate_rps) {
  fleet::FleetServer server(base);
  GMP_CHECK_OK(server.Start());
  for (size_t t = 0; t < tenants.size(); ++t) {
    ValueOrDie(server.AddTenant(tenants[t], MpSvmModel(models[t % models.size()])));
  }

  FleetLoadResult result;
  result.probs.resize(workload.size());
  const auto interval = std::chrono::duration<double>(
      rate_rps > 0 ? 1.0 / rate_rps : 0.0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::pair<size_t, std::future<Result<PredictResponse>>>> pending;
  pending.reserve(workload.size());
  for (size_t r = 0; r < workload.size(); ++r) {
    if (rate_rps > 0) {
      std::this_thread::sleep_until(
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              interval * static_cast<double>(r)));
    }
    if (r % 64 == 0) server.ScaleTick();
    const FleetWorkItem& item = workload[r];
    auto submitted = server.Submit(tenants[item.tenant].name,
                                   rows.RowIndices(item.row),
                                   rows.RowValues(item.row));
    if (!submitted.ok()) {
      if (submitted.status().code() == StatusCode::kUnavailable) {
        ++result.shed;
      } else if (submitted.status().code() == StatusCode::kResourceExhausted) {
        ++result.rejected;
      } else {
        GMP_CHECK_OK(submitted.status());
      }
      continue;
    }
    pending.emplace_back(r, std::move(*submitted));
  }
  for (auto& [index, future] : pending) {
    auto response = future.get();
    if (response.ok()) result.probs[index] = std::move(response->probabilities);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  GMP_CHECK_OK(server.Shutdown());
  result.snap = server.Snapshot();
  return result;
}

const fleet::TenantStatsSnapshot* FindTenantSnap(
    const fleet::FleetStatsSnapshot& snap, const std::string& name) {
  for (const auto& tenant : snap.tenants) {
    if (tenant.tenant == name) return &tenant;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Large-k cascade section.

// The round with the median p50 latency (rounds.size() is odd).
LoadResult MedianP50Round(std::vector<LoadResult> rounds) {
  std::sort(rounds.begin(), rounds.end(),
            [](const LoadResult& a, const LoadResult& b) {
              return a.snap.latency_p50 < b.snap.latency_p50;
            });
  return rounds[rounds.size() / 2];
}

// Wall milliseconds of `calls` PredictRows calls of `batch` consecutive rows
// each — the serve bench's micro-batch shape — through one predictor.
double TimeServeShape(const MpSvmPredictor& predictor, const CsrMatrix& rows,
                      const PredictOptions& options,
                      const ExecutorModel& device, int calls, int batch) {
  SimExecutor executor(device);
  std::vector<SparseRowView> views(static_cast<size_t>(batch));
  Stopwatch wall;
  for (int call = 0; call < calls; ++call) {
    for (int i = 0; i < batch; ++i) {
      const int64_t row = (static_cast<int64_t>(call) * batch + i) % rows.rows();
      views[static_cast<size_t>(i)] =
          SparseRowView{rows.RowIndices(row), rows.RowValues(row)};
    }
    ValueOrDie(predictor.PredictRows(views, &executor, options));
  }
  return wall.ElapsedSeconds() * 1e3;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Serves one k = 64 model (64*63/2 = 2016 pairwise SVMs) closed-loop twice —
// exact coupling over every pair vs the elimination cascade — and checks the
// cascade p50 is at most 0.75x the exact p50 while kExact stays
// byte-identical. Returns a process exit code.
int RunLargeKSection(const Args& args, const std::string& json_path) {
  SyntheticSpec spec;
  spec.name = "LargeK-64";
  spec.num_classes = 64;
  spec.cardinality = 64 * 16;
  spec.dim = 24;
  spec.density = 1.0;
  spec.separation = 4.0;
  spec.c = 4.0;
  spec.gamma = 0.5;
  spec.seed = 71;
  spec.test_cardinality = 128;
  const int64_t num_pairs =
      static_cast<int64_t>(spec.num_classes) * (spec.num_classes - 1) / 2;

  std::fprintf(stderr, "[serve] training %s (%d classes, %lld pairs) ...\n",
               spec.name.c_str(), spec.num_classes,
               static_cast<long long>(num_pairs));
  Dataset train = ValueOrDie(GenerateSynthetic(spec));
  Dataset test = ValueOrDie(GenerateSyntheticTest(spec));
  SimExecutor train_exec = MakeGpuExecutor(spec);
  MpSvmModel model = ValueOrDie(
      GmpSvmTrainer(GmpOptionsFor(spec)).Train(train, &train_exec, nullptr));
  const CsrMatrix& rows = test.features();

  PredictOptions cascade_predict;
  cascade_predict.cascade.mode = CascadeOptions::Mode::kEliminate;
  cascade_predict.cascade.ambiguity_band = 0.05;

  // Offline pass: kExact byte-identity, top-1 agreement, fallback rate.
  SimExecutor e_default = MakeGpuExecutor(spec);
  SimExecutor e_exact = MakeGpuExecutor(spec);
  SimExecutor e_cascade = MakeGpuExecutor(spec);
  auto offline_default = ValueOrDie(
      MpSvmPredictor(&model).Predict(rows, &e_default, PredictOptions{}));
  PredictOptions exact_mode;
  exact_mode.cascade.mode = CascadeOptions::Mode::kExact;
  auto offline_exact =
      ValueOrDie(MpSvmPredictor(&model).Predict(rows, &e_exact, exact_mode));
  auto offline_cascade = ValueOrDie(
      MpSvmPredictor(&model).Predict(rows, &e_cascade, cascade_predict));
  const bool exact_identical =
      offline_exact.probabilities.size() ==
          offline_default.probabilities.size() &&
      std::memcmp(offline_exact.probabilities.data(),
                  offline_default.probabilities.data(),
                  offline_default.probabilities.size() * sizeof(double)) == 0 &&
      offline_exact.labels == offline_default.labels;
  int64_t agree = 0;
  for (int64_t i = 0; i < offline_default.num_instances; ++i) {
    if (offline_default.labels[static_cast<size_t>(i)] ==
        offline_cascade.labels[static_cast<size_t>(i)]) {
      ++agree;
    }
  }
  const double agreement =
      static_cast<double>(agree) /
      static_cast<double>(offline_default.num_instances);
  const double fallback_rate =
      offline_cascade.cascade_rows > 0
          ? static_cast<double>(offline_cascade.cascade_fallback_rows) /
                static_cast<double>(offline_cascade.cascade_rows)
          : 0.0;
  const double pairs_per_row =
      static_cast<double>(offline_cascade.cascade_pairs_evaluated) /
      static_cast<double>(offline_cascade.cascade_rows);

  // Closed loop: same server shape, only the predict options differ.
  constexpr int kLkClients = 16;
  constexpr int kLkPerClient = 8;
  constexpr int kLkRounds = 5;
  ModelRegistry registry;
  ValueOrDie(registry.Register("default", std::move(model)));
  ServeOptions exact_serve;
  exact_serve.num_workers = 2;
  exact_serve.batching.max_batch_size = 8;
  exact_serve.batching.max_queue_delay = std::chrono::microseconds(200);
  ServeOptions cascade_serve = exact_serve;
  cascade_serve.predict = cascade_predict;

  // Offline at the serve shape: the served predictor, one 8-row
  // PredictRows per micro-batch, the arms alternating as in the closed loop.
  // It shows how much of the served ratio is the predictor's own.
  constexpr int kOfflineCalls = 16;
  const ModelHandle served = ValueOrDie(registry.Get("default"));
  std::vector<double> exact_shape_ms, cascade_shape_ms;
  for (int round = 0; round < kLkRounds; ++round) {
    exact_shape_ms.push_back(TimeServeShape(
        *served.predictor, rows, exact_serve.predict,
        exact_serve.executor_model, kOfflineCalls,
        exact_serve.batching.max_batch_size));
    cascade_shape_ms.push_back(TimeServeShape(
        *served.predictor, rows, cascade_serve.predict,
        cascade_serve.executor_model, kOfflineCalls,
        cascade_serve.batching.max_batch_size));
  }
  const double exact_offline_ms = Median(exact_shape_ms);
  const double cascade_offline_ms = Median(cascade_shape_ms);
  const double offline_ratio =
      exact_offline_ms > 0.0 ? cascade_offline_ms / exact_offline_ms : 1.0;

  std::printf("%s: closed loop, %d clients x %d requests, %d workers, "
              "%lld pairwise SVMs, median of %d alternating rounds\n",
              spec.name.c_str(), kLkClients, kLkPerClient,
              exact_serve.num_workers, static_cast<long long>(num_pairs),
              kLkRounds);
  // One round is only 128 requests, and a single exact/cascade pair of
  // rounds swung the p50 ratio by about +/-0.1 on a shared host. So the arms
  // alternate for kLkRounds rounds, which spreads a slow period of the host
  // over both, and each arm reports its median-p50 round.
  std::vector<LoadResult> exact_rounds, cascade_rounds;
  for (int round = 0; round < kLkRounds; ++round) {
    exact_rounds.push_back(
        RunClosedLoop(&registry, rows, exact_serve, kLkClients, kLkPerClient));
    cascade_rounds.push_back(RunClosedLoop(&registry, rows, cascade_serve,
                                           kLkClients, kLkPerClient));
  }
  const LoadResult exact_run = MedianP50Round(exact_rounds);
  const LoadResult cascade_run = MedianP50Round(cascade_rounds);

  TablePrinter table(
      {"predictor", "throughput", "p50 ms", "p95 ms", "p99 ms"});
  table.AddRow({"exact coupling", StrPrintf("%.0f rps", exact_run.achieved_rps),
                Ms(exact_run.snap.latency_p50), Ms(exact_run.snap.latency_p95),
                Ms(exact_run.snap.latency_p99)});
  table.AddRow({"cascade", StrPrintf("%.0f rps", cascade_run.achieved_rps),
                Ms(cascade_run.snap.latency_p50),
                Ms(cascade_run.snap.latency_p95),
                Ms(cascade_run.snap.latency_p99)});
  table.Print();
  const double p50_ratio =
      exact_run.snap.latency_p50 > 0.0
          ? cascade_run.snap.latency_p50 / exact_run.snap.latency_p50
          : 1.0;
  std::printf("cascade p50 = %.2fx exact p50; %.1f pairs evaluated per row "
              "of %lld; fallback rate %.3f; top-1 agreement %.4f; "
              "kExact byte-identical: %s\n",
              p50_ratio, pairs_per_row, static_cast<long long>(num_pairs),
              fallback_rate, agreement, exact_identical ? "yes" : "NO");
  std::printf("offline at the serve shape (%d PredictRows calls of %d rows, "
              "median of %d): exact %.2f ms, cascade %.2f ms, ratio %.2f\n",
              kOfflineCalls, exact_serve.batching.max_batch_size, kLkRounds,
              exact_offline_ms, cascade_offline_ms, offline_ratio);

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"serve_largek_cascade\",\n";
    json << StrPrintf("  \"dataset\": \"%s\",\n  \"classes\": %d,\n"
                      "  \"num_pairs\": %lld,\n  \"host_threads\": %d,\n",
                      spec.name.c_str(), spec.num_classes,
                      static_cast<long long>(num_pairs), args.host_threads);
    json << StrPrintf(
        "  \"exact\": {\"rps\": %.1f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
        "\"p99_ms\": %.4f},\n",
        exact_run.achieved_rps, exact_run.snap.latency_p50 * 1e3,
        exact_run.snap.latency_p95 * 1e3, exact_run.snap.latency_p99 * 1e3);
    json << StrPrintf(
        "  \"cascade\": {\"rps\": %.1f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
        "\"p99_ms\": %.4f, \"budget\": %d, \"ambiguity_band\": %g},\n",
        cascade_run.achieved_rps, cascade_run.snap.latency_p50 * 1e3,
        cascade_run.snap.latency_p95 * 1e3,
        cascade_run.snap.latency_p99 * 1e3, cascade_predict.cascade.budget,
        cascade_predict.cascade.ambiguity_band);
    json << StrPrintf(
        "  \"offline\": {\"exact_ms\": %.4f, \"cascade_ms\": %.4f, "
        "\"ratio\": %.4f},\n",
        exact_offline_ms, cascade_offline_ms, offline_ratio);
    json << StrPrintf(
        "  \"p50_ratio\": %.4f,\n  \"pairs_evaluated_per_row\": %.2f,\n"
        "  \"fallback_rate\": %.4f,\n  \"label_agreement\": %.4f,\n"
        "  \"exact_mode_byte_identical\": %s\n}\n",
        p50_ratio, pairs_per_row, fallback_rate, agreement,
        exact_identical ? "true" : "false");
    std::printf("largek json written to %s\n", json_path.c_str());
  }
  std::printf("\n");

  if (!exact_identical) {
    std::fprintf(stderr,
                 "FAIL: --cascade=exact diverged from the default predictor\n");
    return 1;
  }
  // The SIMD host tier sped the exact path up (full-k coupling and kernel
  // transforms vectorize), and register-blocked kernel rows sped up its
  // micro-batch kernel blocks, while the cascade evaluates ~8% of pairs
  // through per-row lazy kernel rows that neither change reaches. On a
  // shared 4-vCPU x86-64 host, five runs each of the median-of-rounds ratio
  // read 0.64-0.72 before register blocking and 0.69-0.75 after it. The
  // gate asserts the cascade still clearly wins; if the exact path keeps
  // gaining, the fix is the cascade's own kernel rows, not a looser gate.
  if (p50_ratio > 0.75) {
    std::fprintf(stderr,
                 "FAIL: cascade p50 is %.2fx exact p50 at k=64 (need <= 0.75x)\n",
                 p50_ratio);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Section-local flags, stripped before the shared parser sees them.
  std::string largek_json;
  bool largek_only = false;
  std::vector<char*> kept;
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--largek-json=")) {
      largek_json = arg.substr(14);
    } else if (arg == "--largek-only") {
      largek_only = true;
    } else {
      kept.push_back(argv[i]);
    }
  }
  Args args = ParseArgs(static_cast<int>(kept.size()), kept.data());
  if (args.datasets.empty()) args.datasets = {"Connect-4"};
  if (largek_only) {
    const int rc = RunLargeKSection(args, largek_json);
    DumpObservability(args);
    return rc;
  }
  std::printf("SERVING: micro-batched inference throughput vs unbatched "
              "(scale %.2f)\n\n", args.scale);

  // Concurrency well above max_batch_size: batches then fill straight from
  // the backlog and the batch window almost never has to idle-wait.
  constexpr int kClients = 32;
  constexpr int kPerClient = 20;
  constexpr int kWorkers = 2;

  for (const auto& spec : SelectSpecs(args, DatasetFilter::kMulticlassOnly)) {
    Dataset train = ValueOrDie(GenerateSynthetic(spec));
    Dataset test = ValueOrDie(GenerateSyntheticTest(spec));
    std::fprintf(stderr, "[serve] training %s ...\n", spec.name.c_str());

    ModelRegistry registry;
    {
      SimExecutor exec = MakeGpuExecutor(spec);
      auto model =
          ValueOrDie(GmpSvmTrainer(GmpOptionsFor(spec)).Train(train, &exec,
                                                              nullptr));
      ValueOrDie(registry.Register("default", std::move(model)));
    }
    const CsrMatrix& rows = test.features();

    // Closed loop: batch-size sweep. max_batch_size = 1 is the unbatched
    // baseline — every request pays the full per-Predict overhead.
    std::printf("%s: closed loop, %d clients x %d requests, %d workers\n",
                spec.name.c_str(), kClients, kPerClient, kWorkers);
    TablePrinter closed({"max_batch", "throughput", "mean batch", "p50 ms",
                         "p95 ms", "p99 ms"});
    double unbatched_rps = 0.0, best_batched_rps = 0.0;
    for (int max_batch : {1, 8, 32}) {
      ServeOptions options;
      options.num_workers = kWorkers;
      options.batching.max_batch_size = max_batch;
      options.batching.max_queue_delay = std::chrono::microseconds(200);
      LoadResult r = RunClosedLoop(&registry, rows, options, kClients,
                                   kPerClient);
      if (max_batch == 1) unbatched_rps = r.achieved_rps;
      best_batched_rps = std::max(best_batched_rps, r.achieved_rps);
      closed.AddRow({StrPrintf("%d", max_batch),
                     StrPrintf("%.0f rps", r.achieved_rps),
                     StrPrintf("%.2f", r.snap.mean_batch_size),
                     Ms(r.snap.latency_p50), Ms(r.snap.latency_p95),
                     Ms(r.snap.latency_p99)});
    }
    closed.Print();
    std::printf("batched vs unbatched sustained throughput: %s\n\n",
                Speedup(best_batched_rps / unbatched_rps).c_str());

    // Open loop: batch-window sweep at ~80%% of the unbatched capacity, the
    // regime where coalescing headroom decides whether the queue stays flat.
    const double rate = 0.8 * unbatched_rps;
    const int total = kClients * kPerClient / 2;
    std::printf("%s: open loop, %.0f rps offered, %d requests\n",
                spec.name.c_str(), rate, total);
    TablePrinter open({"window us", "achieved", "mean batch", "max depth",
                       "p50 ms", "p95 ms", "p99 ms"});
    for (int window_us : {0, 200, 1000, 5000}) {
      ServeOptions options;
      options.num_workers = kWorkers;
      options.batching.max_batch_size = 32;
      options.batching.max_queue_delay = std::chrono::microseconds(window_us);
      LoadResult r = RunOpenLoop(&registry, rows, options, rate, total);
      open.AddRow({StrPrintf("%d", window_us),
                   StrPrintf("%.0f rps", r.achieved_rps),
                   StrPrintf("%.2f", r.snap.mean_batch_size),
                   StrPrintf("%zu", r.snap.max_queue_depth),
                   Ms(r.snap.latency_p50), Ms(r.snap.latency_p95),
                   Ms(r.snap.latency_p99)});
    }
    open.Print();
    std::printf("\n");
  }

  // -------------------------------------------------------------------------
  // Multi-tenant fleet: Zipf-weighted tenants over a shared SV store.
  const SyntheticSpec fleet_spec =
      SelectSpecs(args, DatasetFilter::kMulticlassOnly).front();
  std::fprintf(stderr, "[serve] training fleet models on %s ...\n",
               fleet_spec.name.c_str());
  Dataset fleet_train = ValueOrDie(GenerateSynthetic(fleet_spec));
  Dataset fleet_test = ValueOrDie(GenerateSyntheticTest(fleet_spec));
  std::vector<MpSvmModel> fleet_models;
  {
    // Two models over the same training rows (different C): their support
    // vectors overlap heavily, which is exactly the cross-tenant sharing
    // opportunity the SV store exploits.
    SimExecutor exec = MakeGpuExecutor(fleet_spec);
    fleet_models.push_back(ValueOrDie(
        GmpSvmTrainer(GmpOptionsFor(fleet_spec)).Train(fleet_train, &exec,
                                                       nullptr)));
    MpTrainOptions second = GmpOptionsFor(fleet_spec);
    second.c *= 4.0;
    fleet_models.push_back(ValueOrDie(
        GmpSvmTrainer(second).Train(fleet_train, &exec, nullptr)));
  }
  const CsrMatrix& fleet_rows = fleet_test.features();

  // Zipf(1.2) tenant popularity: rank r gets weight 1/r^1.2. Tenant i serves
  // model i % 2, so hot and cool share one model, warm and cold the other.
  const char* kTenantNames[] = {"hot", "warm", "cool", "cold"};
  std::vector<fleet::TenantSpec> tenants;
  for (size_t r = 0; r < 4; ++r) {
    fleet::TenantSpec spec;
    spec.name = kTenantNames[r];
    spec.priority = static_cast<int>(3 - r);
    spec.weight = 1.0 / std::pow(static_cast<double>(r + 1), 1.2);
    tenants.push_back(spec);
  }
  double fleet_total_weight = 0.0;
  for (const auto& t : tenants) fleet_total_weight += t.weight;

  // Precompute the request sequence once so every run replays it verbatim.
  const int kFleetRequests = 480;
  std::vector<FleetWorkItem> workload;
  workload.reserve(kFleetRequests);
  {
    Rng rng(1234);
    std::vector<int64_t> next_row(tenants.size(), 0);
    for (int r = 0; r < kFleetRequests; ++r) {
      double pick = rng.Uniform() * fleet_total_weight;
      size_t t = 0;
      for (; t + 1 < tenants.size(); ++t) {
        pick -= tenants[t].weight;
        if (pick < 0.0) break;
      }
      workload.push_back(FleetWorkItem{t, next_row[t]++ % fleet_rows.rows()});
    }
  }

  // Phase 1 — sharing on vs off, identical workload, shedding disabled so
  // both runs admit every request.
  fleet::FleetOptions fleet_base;
  fleet_base.serve.num_workers = kWorkers;
  fleet_base.serve.batching.max_batch_size = 16;
  fleet_base.serve.batching.max_queue_delay = std::chrono::microseconds(200);
  fleet_base.serve.executor_model =
      ScaleModel(ExecutorModel::TeslaP100(), WorldScale(fleet_spec));
  fleet_base.serve.executor_model.host_threads = args.host_threads;
  fleet_base.initial_replicas = 2;
  fleet_base.autoscale.min_replicas = 2;
  fleet_base.autoscale.max_replicas = 2;
  fleet_base.shed_start_fraction = 1.0;  // no overload shedding in phase 1

  std::printf("%s: fleet, 4 zipf tenants x 2 shared-SV models, %d requests, "
              "2 replicas x %d workers\n",
              fleet_spec.name.c_str(), kFleetRequests, kWorkers);
  fleet::FleetOptions sharing_on = fleet_base;
  sharing_on.share_support_vectors = true;
  fleet::FleetOptions sharing_off = fleet_base;
  sharing_off.share_support_vectors = false;
  FleetLoadResult on = RunFleet(sharing_on, tenants, fleet_models, fleet_rows,
                                workload, /*rate_rps=*/0.0);
  FleetLoadResult off = RunFleet(sharing_off, tenants, fleet_models,
                                 fleet_rows, workload, /*rate_rps=*/0.0);

  int64_t identical = 0, divergent = 0;
  for (size_t r = 0; r < workload.size(); ++r) {
    const auto& a = on.probs[r];
    const auto& b = off.probs[r];
    if (a.empty() || b.empty()) continue;
    const bool same =
        a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    same ? ++identical : ++divergent;
  }
  TablePrinter fleet_table(
      {"tenant", "weight", "completed", "p50 ms", "p95 ms", "p99 ms"});
  for (size_t t = 0; t < tenants.size(); ++t) {
    const fleet::TenantStatsSnapshot* snap =
        FindTenantSnap(on.snap, tenants[t].name);
    fleet_table.AddRow({tenants[t].name, StrPrintf("%.2f", tenants[t].weight),
                        StrPrintf("%llu", static_cast<unsigned long long>(
                                              snap ? snap->completed : 0)),
                        Ms(snap ? snap->latency_p50 : 0.0),
                        Ms(snap ? snap->latency_p95 : 0.0),
                        Ms(snap ? snap->latency_p99 : 0.0)});
  }
  fleet_table.Print();
  const double reduction =
      off.snap.kernel_values_computed > 0
          ? 100.0 * (1.0 - static_cast<double>(on.snap.kernel_values_computed) /
                               static_cast<double>(
                                   off.snap.kernel_values_computed))
          : 0.0;
  std::printf("sv sharing: %lld kernel values computed vs %lld without "
              "(%.1f%% fewer), %lld reused\n",
              static_cast<long long>(on.snap.kernel_values_computed),
              static_cast<long long>(off.snap.kernel_values_computed),
              reduction,
              static_cast<long long>(on.snap.kernel_values_reused));
  std::printf("probabilities byte-identical sharing on vs off: %lld/%lld "
              "compared, %lld divergent\n",
              static_cast<long long>(identical),
              static_cast<long long>(identical + divergent),
              static_cast<long long>(divergent));
  if (divergent > 0) {
    std::fprintf(stderr, "FAIL: SV sharing changed prediction bytes\n");
    return 1;
  }
  if (on.snap.kernel_values_computed >= off.snap.kernel_values_computed) {
    std::fprintf(stderr,
                 "FAIL: SV sharing did not reduce kernel evaluations\n");
    return 1;
  }

  // Phase 2 — 2x overload: offered rate is twice the measured fleet
  // capacity. With shedding, the cold tenants' tight quotas and the priority
  // ladder absorb the overload; without, every tenant fights for the queues.
  const double capacity =
      static_cast<double>(identical + divergent) / on.wall_seconds;
  const double offered = 2.0 * capacity;
  std::printf("\n%s: fleet under 2x overload, %.0f rps offered "
              "(capacity ~%.0f rps)\n",
              fleet_spec.name.c_str(), offered, capacity);
  fleet::FleetOptions overload_base = fleet_base;
  overload_base.serve.queue_capacity = 64;
  fleet::FleetOptions with_shed = overload_base;
  with_shed.shed_start_fraction = 0.5;
  std::vector<fleet::TenantSpec> quota_tenants = tenants;
  for (size_t t = 2; t < quota_tenants.size(); ++t) {
    quota_tenants[t].quota.rate_per_sec = capacity / 16.0;
    quota_tenants[t].quota.burst = 4.0;
  }
  FleetLoadResult shed_run = RunFleet(with_shed, quota_tenants, fleet_models,
                                      fleet_rows, workload, offered);
  FleetLoadResult noshed_run = RunFleet(overload_base, tenants, fleet_models,
                                        fleet_rows, workload, offered);
  const fleet::TenantStatsSnapshot* hot_shed =
      FindTenantSnap(shed_run.snap, "hot");
  const fleet::TenantStatsSnapshot* hot_noshed =
      FindTenantSnap(noshed_run.snap, "hot");
  TablePrinter overload_table({"policy", "hot p50 ms", "hot p99 ms", "shed",
                               "rejected"});
  overload_table.AddRow(
      {"quota+priority shed", Ms(hot_shed ? hot_shed->latency_p50 : 0.0),
       Ms(hot_shed ? hot_shed->latency_p99 : 0.0),
       StrPrintf("%llu", static_cast<unsigned long long>(shed_run.shed)),
       StrPrintf("%llu", static_cast<unsigned long long>(shed_run.rejected))});
  overload_table.AddRow(
      {"no shedding", Ms(hot_noshed ? hot_noshed->latency_p50 : 0.0),
       Ms(hot_noshed ? hot_noshed->latency_p99 : 0.0),
       StrPrintf("%llu", static_cast<unsigned long long>(noshed_run.shed)),
       StrPrintf("%llu",
                 static_cast<unsigned long long>(noshed_run.rejected))});
  overload_table.Print();
  if (shed_run.shed == 0) {
    std::fprintf(stderr, "FAIL: 2x overload shed no requests\n");
    return 1;
  }

  if (!args.json_out.empty()) {
    std::ofstream json(args.json_out);
    json << "{\n  \"bench\": \"serve_throughput_fleet\",\n";
    json << StrPrintf("  \"scale\": %g,\n  \"host_threads\": %d,\n",
                      args.scale, args.host_threads);
    json << StrPrintf("  \"dataset\": \"%s\",\n  \"requests\": %d,\n",
                      fleet_spec.name.c_str(), kFleetRequests);
    json << "  \"tenants\": [\n";
    for (size_t t = 0; t < tenants.size(); ++t) {
      const fleet::TenantStatsSnapshot* snap =
          FindTenantSnap(on.snap, tenants[t].name);
      json << StrPrintf(
          "    {\"name\": \"%s\", \"weight\": %.4f, \"priority\": %d, "
          "\"submitted\": %llu, \"completed\": %llu, \"p50_ms\": %.4f, "
          "\"p95_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
          tenants[t].name.c_str(), tenants[t].weight, tenants[t].priority,
          static_cast<unsigned long long>(snap ? snap->submitted : 0),
          static_cast<unsigned long long>(snap ? snap->completed : 0),
          (snap ? snap->latency_p50 : 0.0) * 1e3,
          (snap ? snap->latency_p95 : 0.0) * 1e3,
          (snap ? snap->latency_p99 : 0.0) * 1e3,
          t + 1 < tenants.size() ? "," : "");
    }
    json << "  ],\n";
    json << StrPrintf(
        "  \"sharing\": {\"on_computed\": %lld, \"off_computed\": %lld, "
        "\"on_reused\": %lld, \"reduction_pct\": %.2f, "
        "\"byte_identical\": %s, \"compared\": %lld},\n",
        static_cast<long long>(on.snap.kernel_values_computed),
        static_cast<long long>(off.snap.kernel_values_computed),
        static_cast<long long>(on.snap.kernel_values_reused), reduction,
        divergent == 0 ? "true" : "false",
        static_cast<long long>(identical + divergent));
    json << StrPrintf(
        "  \"overload\": {\"offered_rps\": %.1f, \"capacity_rps\": %.1f, "
        "\"shed\": {\"hot_p99_ms\": %.4f, \"shed_total\": %llu}, "
        "\"no_shed\": {\"hot_p99_ms\": %.4f, \"rejected\": %llu}}\n",
        offered, capacity, (hot_shed ? hot_shed->latency_p99 : 0.0) * 1e3,
        static_cast<unsigned long long>(shed_run.shed),
        (hot_noshed ? hot_noshed->latency_p99 : 0.0) * 1e3,
        static_cast<unsigned long long>(noshed_run.rejected));
    json << "}\n";
    std::printf("json written to %s\n", args.json_out.c_str());
  }
  std::printf("\n");

  const int largek_rc = RunLargeKSection(args, largek_json);

  std::printf("Note: throughput is bench wall-clock; latency percentiles are\n"
              "end-to-end (admission -> response) from ServeStats.\n");
  DumpObservability(args);
  return largek_rc;
}
