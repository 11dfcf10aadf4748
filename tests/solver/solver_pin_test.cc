// Pins the two-variable SMO solvers off the trainers' default paths to exact
// recorded values: SmoSolver with second-order selection on a class-weighted
// problem (unequal C bounds), SmoSolver with first-order selection and
// shrinking, and the GPUSVM stand-in. Each run reduces to hashes of alpha
// and f, the bias and objective, the solver counters and phases, and the
// executor's simulated clock; a mismatch prints every value with %a.

#include <gtest/gtest.h>

#include <string>

#include "../pins.h"
#include "../test_util.h"
#include "baselines/gpusvm_like.h"
#include "device/executor.h"
#include "solver/smo_solver.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::ExpectPins;
using ::gmpsvm::testing::MakeBinaryBlobs;
using ::gmpsvm::testing::MakeMulticlassBlobs;
using ::gmpsvm::testing::MakeProblem;
using ::gmpsvm::testing::Pins;

KernelParams Gaussian(double gamma) {
  KernelParams p;
  p.type = KernelType::kGaussian;
  p.gamma = gamma;
  return p;
}

Pins SolutionPins(const BinarySolution& solution, const SolverStats& stats,
                  SimExecutor* exec) {
  exec->SynchronizeAll();
  Pins pins;
  pins.Doubles("alpha", solution.alpha);
  pins.Doubles("f", solution.f);
  pins.Real("bias", solution.bias);
  pins.Real("objective", solution.objective);
  pins.Solver("solver.", stats);
  pins.Real("now_seconds", exec->NowSeconds());
  return pins;
}

Pins RunSmo(const SmoOptions& options, double weight_pos, double weight_neg) {
  const testing::BinaryBlobs blobs = MakeBinaryBlobs(60, 5, 0.9, 131, 1.4);
  BinaryProblem p = MakeProblem(blobs, 2.0, Gaussian(0.3));
  p.weight_pos = weight_pos;
  p.weight_neg = weight_neg;
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  SolverStats stats;
  const BinarySolution solution =
      ValueOrDie(SmoSolver(options).Solve(p, kc, &exec, kDefaultStream, &stats));
  return SolutionPins(solution, stats, &exec);
}

constexpr const char* kSmoSecondOrderWeighted = R"(
alpha=df395a0de9960475
bias=-0x1.1e5124d544fb8p-11
f=b60927e6b92b2dc8
now_seconds=0x1.9e1c4aec20decp-8
objective=0x1.401d37bae68c9p+5
solver.alloc_retries=0
solver.iterations=203
solver.kernel_row_retries=0
solver.kernel_rows_computed=97
solver.kernel_rows_reused=310
solver.outer_rounds=203
solver.phase.kernel_values=0x1.16daac0d271fep-9
solver.phase.other=0x1.1204dc8933e33p-8
solver.rows_poisoned=0
)";

constexpr const char* kSmoFirstOrderShrinking = R"(
alpha=bf84c4cb326d9894
bias=-0x1.f7823d65a9bbep-5
f=ba1abd7a8a78fc38
now_seconds=0x1.1b493d797e57p-7
objective=0x1.52d5cbda59828p+5
solver.alloc_retries=0
solver.iterations=278
solver.kernel_row_retries=0
solver.kernel_rows_computed=95
solver.kernel_rows_reused=461
solver.outer_rounds=278
solver.phase.kernel_values=0x1.790b88b14467ap-9
solver.phase.other=0x1.79629e3e010e9p-8
solver.rows_poisoned=0
)";

constexpr const char* kGpuSvmLike = R"(
alpha=52fd5b9508de18dc
bias=0x1.2f41426aad9c1p-4
f=dc96f6c11e6824d1
now_seconds=0x1.022daf9383d96p-8
objective=0x1.8ed2f7c3cf12fp+5
solver.alloc_retries=0
solver.iterations=153
solver.kernel_row_retries=0
solver.kernel_rows_computed=99
solver.kernel_rows_reused=207
solver.outer_rounds=153
solver.rows_poisoned=0
)";

TEST(SolverPinTest, SmoSecondOrderClassWeighted) {
  ExpectPins(kSmoSecondOrderWeighted, RunSmo(SmoOptions{}, 3.0, 0.5));
}

TEST(SolverPinTest, SmoFirstOrderWithShrinking) {
  SmoOptions options;
  options.selection = SmoOptions::Selection::kFirstOrder;
  options.shrinking = true;
  options.shrink_interval = 25;
  ExpectPins(kSmoFirstOrderShrinking, RunSmo(options, 1.0, 1.0));
}

TEST(SolverPinTest, GpuSvmLike) {
  const Dataset data = ValueOrDie(MakeMulticlassBlobs(2, 50, 4, 1.5, 19, 1.5));
  GpuSvmLikeOptions options;
  options.c = 1.0;
  options.kernel = Gaussian(0.5);
  SimExecutor exec(ExecutorModel::TeslaP100());
  SolverStats stats;
  const BinarySolution solution =
      ValueOrDie(GpuSvmLikeTrainer(options).Train(data, &exec, &stats));
  ExpectPins(kGpuSvmLike, SolutionPins(solution, stats, &exec));
}

}  // namespace
}  // namespace gmpsvm
