// Section 3.3.1 claim: "when q > 10, the computation cost per row is often
// over ten times cheaper than the cost of computing a row individually."
// Measures simulated cost per kernel-matrix row as a function of batch size,
// and beside it the host wall time per row of the same ComputeBlock calls
// (best of kWallReps, one host thread). On the host, batching pays through
// the register-blocked panels of BatchRowDots2: each target nonzero is loaded
// once per panel of up to 16 batch rows, so wall per row levels off from
// b = 16 on rather than tracking the simulated cost.

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "kernel/kernel_computer.h"

using namespace gmpsvm;         // NOLINT
using namespace gmpsvm::bench;  // NOLINT

namespace {
constexpr int kWallReps = 3;
}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.datasets.empty()) {
    args.datasets = {"Adult", "RCV1", "MNIST"};
  }
  std::printf("ABLATION (Sec 3.3.1): simulated cost per kernel row vs batch size\n\n");

  const int batch_sizes[] = {1, 2, 4, 8, 16, 64, 256, 1024};
  std::vector<std::string> headers = {"Dataset"};
  for (int b : batch_sizes) headers.push_back(StrPrintf("b=%d", b));
  headers.push_back("b=1 / b=1024");
  TablePrinter table(headers);
  TablePrinter wall_table(headers);

  for (const auto& spec : SelectSpecs(args)) {
    Dataset data = ValueOrDie(GenerateSynthetic(spec));
    KernelParams params;
    params.gamma = spec.gamma;
    KernelComputer computer(&data.features(), params);
    std::vector<int32_t> all(static_cast<size_t>(data.size()));
    std::iota(all.begin(), all.end(), 0);

    std::vector<std::string> row = {spec.name};
    std::vector<std::string> wall_row = {spec.name};
    double per_row_1 = 0, per_row_max = 0;
    double wall_1 = 0, wall_max = 0;
    for (int b : batch_sizes) {
      const int64_t capped = std::min<int64_t>(b, data.size());
      std::vector<int32_t> batch(all.begin(), all.begin() + capped);
      std::vector<double> out(static_cast<size_t>(capped * data.size()));
      SimExecutor gpu(ExecutorModel::TeslaP100());
      computer.ComputeBlock(batch, all, &gpu, kDefaultStream, out.data());
      const double per_row = gpu.NowSeconds() / static_cast<double>(capped);
      if (b == 1) per_row_1 = per_row;
      per_row_max = per_row;
      row.push_back(StrPrintf("%.2fus", per_row * 1e6));

      double best = 0.0;
      for (int rep = 0; rep < kWallReps; ++rep) {
        SimExecutor wall_gpu(ExecutorModel::TeslaP100());
        Stopwatch watch;
        computer.ComputeBlock(batch, all, &wall_gpu, kDefaultStream,
                              out.data());
        const double seconds = watch.ElapsedSeconds();
        best = rep == 0 ? seconds : std::min(best, seconds);
      }
      const double wall_per_row = best / static_cast<double>(capped);
      if (b == 1) wall_1 = wall_per_row;
      wall_max = wall_per_row;
      wall_row.push_back(StrPrintf("%.2fus", wall_per_row * 1e6));
    }
    row.push_back(Speedup(per_row_1 / per_row_max));
    table.AddRow(row);
    wall_row.push_back(Speedup(wall_1 / wall_max));
    wall_table.AddRow(wall_row);
  }
  table.Print();
  std::printf("\nPaper claim: the rightmost ratio should exceed 10x.\n");
  std::printf("\nHost wall time per kernel row (best of %d, 1 host thread)\n\n",
              kWallReps);
  wall_table.Print();
  DumpObservability(args);
  return 0;
}
