// Google-benchmark micro-benchmarks for the hot kernels of the library:
// batched kernel rows (sparse vs dense), prediction's decision-value and
// coupling panels, buffer/cache operations, sigmoid fitting, pairwise
// coupling, and the cost of one dispatched ParallelFor. These measure host
// wall time of the actual computation (not simulated time) and guard
// against performance regressions in the substrate itself. The paths that
// ParallelFor splits also report `charged_flops`, the flops they charge per
// second of host time: the host rate that kMinChunkFlops is set against.

#include <benchmark/benchmark.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "device/executor.h"
#include "kernel/kernel_computer.h"
#include "prob/pairwise_coupling.h"
#include "prob/platt.h"
#include "simd/simd.h"
#include "solver/kernel_buffer.h"

namespace gmpsvm {
namespace {

// The flops charged over the timed loop, as a rate.
void ReportChargedFlops(benchmark::State& state, double flops) {
  state.counters["charged_flops"] =
      benchmark::Counter(flops, benchmark::Counter::kIsRate);
}

Dataset MakeData(int64_t rows, int64_t dim, double density) {
  SyntheticSpec spec;
  spec.name = "micro";
  spec.num_classes = 2;
  spec.cardinality = rows;
  spec.dim = dim;
  spec.density = density;
  spec.separation = 1.5;
  spec.gamma = 0.5;
  spec.seed = 7;
  return ValueOrDie(GenerateSynthetic(spec));
}

void BM_BatchKernelRowsSparse(benchmark::State& state) {
  const int64_t batch_size = state.range(0);
  Dataset data = MakeData(2000, 512, 0.05);
  KernelParams params;
  params.gamma = 0.5;
  KernelComputer computer(&data.features(), params);
  std::vector<int32_t> all(static_cast<size_t>(data.size()));
  std::iota(all.begin(), all.end(), 0);
  std::vector<int32_t> batch(all.begin(), all.begin() + batch_size);
  std::vector<double> out(static_cast<size_t>(batch_size * data.size()));
  SimExecutor gpu(ExecutorModel::TeslaP100());
  for (auto _ : state) {
    computer.ComputeBlock(batch, all, &gpu, kDefaultStream, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch_size * data.size());
  ReportChargedFlops(state, gpu.counters().flops);
}
BENCHMARK(BM_BatchKernelRowsSparse)->Arg(1)->Arg(16)->Arg(128)->Arg(512);

// Same computation with the executor's host-parallel backend enabled; the
// second arg is host_threads. Output values are byte-identical to the
// single-threaded variant — only wall time changes.
void BM_BatchKernelRowsSparseMT(benchmark::State& state) {
  const int64_t batch_size = state.range(0);
  const int host_threads = static_cast<int>(state.range(1));
  Dataset data = MakeData(2000, 512, 0.05);
  KernelParams params;
  params.gamma = 0.5;
  KernelComputer computer(&data.features(), params);
  std::vector<int32_t> all(static_cast<size_t>(data.size()));
  std::iota(all.begin(), all.end(), 0);
  std::vector<int32_t> batch(all.begin(), all.begin() + batch_size);
  std::vector<double> out(static_cast<size_t>(batch_size * data.size()));
  ExecutorModel model = ExecutorModel::TeslaP100();
  model.host_threads = host_threads;
  SimExecutor gpu(std::move(model));
  for (auto _ : state) {
    computer.ComputeBlock(batch, all, &gpu, kDefaultStream, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch_size * data.size());
  ReportChargedFlops(state, gpu.counters().flops);
}
BENCHMARK(BM_BatchKernelRowsSparseMT)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 8});

void BM_BatchKernelRowsDense(benchmark::State& state) {
  const int64_t batch_size = state.range(0);
  Dataset data = MakeData(500, 512, 0.05);
  DenseMatrix dense(data.features().rows(), data.features().cols(),
                    data.features().ToDense());
  KernelParams params;
  params.gamma = 0.5;
  DenseKernelComputer computer(&dense, params);
  std::vector<int32_t> all(static_cast<size_t>(data.size()));
  std::iota(all.begin(), all.end(), 0);
  std::vector<int32_t> batch(all.begin(), all.begin() + batch_size);
  std::vector<double> out(static_cast<size_t>(batch_size * data.size()));
  SimExecutor gpu(ExecutorModel::TeslaP100());
  for (auto _ : state) {
    computer.ComputeBlock(batch, all, &gpu, kDefaultStream, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch_size * data.size());
  ReportChargedFlops(state, gpu.counters().flops);
}
BENCHMARK(BM_BatchKernelRowsDense)->Arg(16)->Arg(128);

// Kernel-row batches at the shapes the end-to-end workloads train on. The
// batch sizes take a partial 8-row panel (5), one 16-row panel (16) and four
// (64) of BatchRowDots2's register-blocked panels; batch rows come from the
// targets themselves, as in training.
struct RowShape {
  int64_t cols;
  double density;
  int64_t targets;
};

void BM_BatchKernelRows(benchmark::State& state, RowShape shape) {
  const int64_t batch_size = state.range(0);
  Dataset data = MakeData(shape.targets, shape.cols, shape.density);
  KernelParams params;
  params.gamma = 0.5;
  KernelComputer computer(&data.features(), params);
  std::vector<int32_t> all(static_cast<size_t>(data.size()));
  std::iota(all.begin(), all.end(), 0);
  std::vector<int32_t> batch(all.begin(), all.begin() + batch_size);
  std::vector<double> out(static_cast<size_t>(batch_size * data.size()));
  SimExecutor gpu(ExecutorModel::TeslaP100());
  for (auto _ : state) {
    computer.ComputeBlock(batch, all, &gpu, kDefaultStream, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch_size * data.size());
  ReportChargedFlops(state, gpu.counters().flops);
}
// train-mnist's MNIST proxy: 256 columns, 25% dense.
BENCHMARK_CAPTURE(BM_BatchKernelRows, mnist, RowShape{256, 0.25, 300})
    ->Arg(5)->Arg(16)->Arg(64);
// retrain-k16's RETRAIN-K16 problem: 24 dense columns.
BENCHMARK_CAPTURE(BM_BatchKernelRows, retrain_k16, RowShape{24, 1.0, 206})
    ->Arg(5)->Arg(16)->Arg(64);
// Dense 512-column rows like the CIFAR-10 proxy's (no end-to-end workload).
BENCHMARK_CAPTURE(BM_BatchKernelRows, cifar10, RowShape{512, 1.0, 500})
    ->Arg(5)->Arg(16)->Arg(64);

// Exact prediction's decision values on predict-largek's shape: a k = 64
// model with 16 training rows per class, every row a support vector, so
// each of the 2016 pairs gathers 32 of the 1,024 pool columns. The arg is
// the panel's row count; items are decision values, so the rows compare
// per value.
void BM_PanelDecisionValues(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  constexpr int kClasses = 64;
  constexpr int kPerClass = 16;
  constexpr int64_t kPool = kClasses * kPerClass;
  Rng rng(9);
  std::vector<double> storage;
  double* panel = simd::AlignedPanel(storage, kPool, rows);
  for (int64_t i = 0; i < kPool * rows; ++i) panel[i] = rng.Uniform();
  std::vector<int32_t> idx;
  std::vector<double> coef;
  for (int s = 0; s < kClasses; ++s) {
    for (int t = s + 1; t < kClasses; ++t) {
      for (const int cls : {s, t}) {
        for (int m = 0; m < kPerClass; ++m) {
          idx.push_back(cls * kPerClass + m);
          coef.push_back(rng.Uniform(-4.0, 4.0));
        }
      }
    }
  }
  const int64_t pairs = kClasses * (kClasses - 1) / 2;
  const int64_t nsv = 2 * kPerClass;
  std::vector<double> out(static_cast<size_t>(pairs * rows));
  const simd::SimdOps& ops = simd::OpsFor(simd::SimdTier::kAuto);
  for (auto _ : state) {
    for (int64_t pi = 0; pi < pairs; ++pi) {
      ops.gather_dot_panel(coef.data() + pi * nsv, idx.data() + pi * nsv, nsv,
                           panel, rows, out.data() + pi * rows);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * pairs * rows);
  // Charged like the exact path's decision values: 2 flops per SV reference.
  ReportChargedFlops(state, 2.0 * static_cast<double>(state.iterations()) *
                                pairs * nsv * rows);
}
BENCHMARK(BM_PanelDecisionValues)->Arg(4)->Arg(8)->Arg(16);

// One coupling panel solve by Gaussian elimination (couple_panel through
// CouplePanel), args k and rows per panel; items are coupled rows, so the
// 4- and 8-row panels compare per row.
void BM_CouplePanel(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int rows = static_cast<int>(state.range(1));
  Rng rng(5);
  std::vector<double> pairs(static_cast<size_t>(k) * (k - 1) / 2 *
                            static_cast<size_t>(rows));
  for (double& p : pairs) p = rng.Uniform(0.1, 0.9);
  const CouplingOptions direct;
  std::vector<double> scratch;
  std::vector<double> out(static_cast<size_t>(rows) * k);
  for (auto _ : state) {
    const auto status =
        CouplePanel(pairs, rows, rows, k, direct, &scratch, out.data());
    benchmark::DoNotOptimize(status.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  // Charged like prediction's coupling: (2/3) k^3 flops per row.
  ReportChargedFlops(state, static_cast<double>(state.iterations()) * rows *
                                (2.0 / 3.0) * k * k * k);
}
BENCHMARK(BM_CouplePanel)
    ->Args({16, 4})
    ->Args({16, 8})
    ->Args({64, 4})
    ->Args({64, 8});

// One dispatched ParallelFor whose chunks do no work: the caller wall that a
// split costs, wake-up, hand-off and join included. The arg is the pool's
// thread count; the call is priced at one chunk per item, so it splits into
// four chunks per thread.
void BM_ParallelForDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  const int64_t n = 4 * int64_t{pool.num_threads()};
  const double flops = static_cast<double>(n) * kMinChunkFlops;
  for (auto _ : state) {
    ParallelFor(&pool, n, flops, [](int64_t begin, int64_t end) {
      benchmark::DoNotOptimize(begin + end);
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParallelForDispatch)->Arg(2)->Arg(4)->UseRealTime();

void BM_KernelBufferChurn(benchmark::State& state) {
  KernelBuffer buffer(/*row_length=*/4096, /*capacity_rows=*/512);
  std::vector<int32_t> present, missing;
  int32_t next = 0;
  for (auto _ : state) {
    std::vector<int32_t> ws;
    for (int i = 0; i < 256; ++i) ws.push_back((next + i) % 4096);
    next += 128;
    buffer.Pin(ws);
    buffer.Partition(ws, &present, &missing);
    if (!missing.empty()) {
      auto slots = buffer.InsertBatch(missing);
      benchmark::DoNotOptimize(slots.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_KernelBufferChurn);

// LibSVM's cache under uniform lookups: 1,024 rows, 256 cached, so three
// lookups in four miss and evict the least recently used row.
void BM_KernelBufferLru(benchmark::State& state) {
  KernelBuffer cache(/*row_length=*/1024, /*capacity_rows=*/256,
                     KernelBuffer::Policy::kLru);
  Rng rng(3);
  for (auto _ : state) {
    const int32_t row = static_cast<int32_t>(rng.UniformInt(1024));
    const double* hit = cache.Lookup(row);
    if (hit == nullptr) {
      auto slots = cache.InsertBatch({&row, 1});
      benchmark::DoNotOptimize(slots.ok());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelBufferLru);

// LibSVM-shaped lookups: all 3,000 rows of the problem fit, and 90% of
// lookups come from a 64-row hot set that drifts one row every 64 lookups,
// so after the first touch of each row every lookup hits and refreshes.
void BM_KernelBufferLruHotSet(benchmark::State& state) {
  constexpr int32_t kRows = 3000;
  KernelBuffer cache(kRows, kRows, KernelBuffer::Policy::kLru);
  Rng rng(3);
  int64_t lookups = 0;
  for (auto _ : state) {
    const auto hot_base = static_cast<int32_t>((lookups++ / 64) % kRows);
    const int32_t row =
        rng.Uniform() < 0.9
            ? static_cast<int32_t>((hot_base + rng.UniformInt(64)) % kRows)
            : static_cast<int32_t>(rng.UniformInt(kRows));
    const double* hit = cache.Lookup(row);
    if (hit == nullptr) {
      auto slots = cache.InsertBatch({&row, 1});
      benchmark::DoNotOptimize(slots.ok());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelBufferLruHotSet);

void BM_FitSigmoid(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(11);
  std::vector<double> dec;
  std::vector<int8_t> labels;
  for (int64_t i = 0; i < n; ++i) {
    const double v = rng.Uniform(-3, 3);
    dec.push_back(v);
    labels.push_back(rng.Bernoulli(1.0 / (1.0 + std::exp(-2 * v))) ? 1 : -1);
  }
  SimExecutor gpu(ExecutorModel::TeslaP100());
  for (auto _ : state) {
    auto params = FitSigmoid(dec, labels, &gpu, kDefaultStream, 8);
    benchmark::DoNotOptimize(params.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FitSigmoid)->Arg(1000)->Arg(10000);

void BM_PairwiseCoupling(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<double> r(static_cast<size_t>(k) * k, 0.0);
  for (int s = 0; s < k; ++s) {
    for (int t = s + 1; t < k; ++t) {
      const double v = rng.Uniform(0.1, 0.9);
      r[static_cast<size_t>(s) * k + t] = v;
      r[static_cast<size_t>(t) * k + s] = 1.0 - v;
    }
  }
  CouplingOptions direct;
  for (auto _ : state) {
    auto p = CoupleProbabilities(r, k, direct);
    benchmark::DoNotOptimize(p.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairwiseCoupling)->Arg(3)->Arg(10)->Arg(20);

}  // namespace
}  // namespace gmpsvm

// Custom main so the bench-suite-wide `--json=<path>` spelling works here
// too: it is rewritten into google-benchmark's --benchmark_out flags before
// Initialize() consumes the command line.
int main(int argc, char** argv) {
  std::vector<char*> rewritten;
  std::vector<std::string> storage;
  // Reserve for the worst case up front: storage must never reallocate once
  // rewritten holds pointers into its strings.
  rewritten.reserve(2 * static_cast<size_t>(argc) + 2);
  storage.reserve(2 * static_cast<size_t>(argc) + 2);
  rewritten.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      storage.push_back("--benchmark_out=" + arg.substr(7));
      rewritten.push_back(storage.back().data());
      storage.push_back("--benchmark_out_format=json");
      rewritten.push_back(storage.back().data());
    } else {
      rewritten.push_back(argv[i]);
    }
  }
  int rewritten_argc = static_cast<int>(rewritten.size());
  benchmark::Initialize(&rewritten_argc, rewritten.data());
  if (benchmark::ReportUnrecognizedArguments(rewritten_argc, rewritten.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
