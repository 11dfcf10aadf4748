#include "core/ova_trainer.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "core/pair_engine.h"
#include "solver/batch_smo_solver.h"

namespace gmpsvm {

Result<OvaModel> OvaTrainer::Train(const Dataset& dataset, SimExecutor* executor,
                                   MpTrainReport* report) const {
  GMP_RETURN_NOT_OK(options_.Validate(dataset.num_classes()));
  const TrainRunStart start(executor);
  executor->Transfer(kDefaultStream,
                     static_cast<double>(dataset.features().ByteSize()),
                     TransferDirection::kHostToDevice);

  KernelComputer computer(&dataset.features(), options_.kernel);
  BatchSmoSolver solver(options_.batch);

  OvaModel model;
  model.num_classes = dataset.num_classes();
  model.c = options_.c;
  model.kernel = options_.kernel;
  std::unordered_map<int32_t, int32_t> pool_map;

  // Classes train in order on the default stream. Pool indices depend on
  // insertion order, so entries are added in class order.
  for (int cls = 0; cls < dataset.num_classes(); ++cls) {
    // Binary problem: class `cls` (+1) vs everything else (-1), over ALL rows.
    BinaryProblem problem;
    problem.data = &dataset.features();
    problem.rows.resize(static_cast<size_t>(dataset.size()));
    std::iota(problem.rows.begin(), problem.rows.end(), 0);
    problem.y.resize(static_cast<size_t>(dataset.size()));
    for (int64_t i = 0; i < dataset.size(); ++i) {
      problem.y[static_cast<size_t>(i)] =
          dataset.labels()[static_cast<size_t>(i)] == cls ? int8_t{1} : int8_t{-1};
    }
    problem.C = options_.c;
    problem.kernel = options_.kernel;

    SolverStats stats;
    GMP_ASSIGN_OR_RETURN(
        BinarySolution solution,
        solver.Solve(problem, computer, {executor, kDefaultStream}, &stats));
    GMP_ASSIGN_OR_RETURN(
        SigmoidParams sigmoid,
        FitSigmoid(TrainingDecisionValues(problem, solution), problem.y,
                   executor, kDefaultStream,
                   options_.platt_parallel_candidates));

    OvaClassEntry entry;
    entry.cls = cls;
    entry.bias = solution.bias;
    entry.sigmoid = sigmoid;
    for (int64_t i = 0; i < problem.n(); ++i) {
      const double a = solution.alpha[static_cast<size_t>(i)];
      if (a <= 0.0) continue;
      const int32_t global_row = problem.rows[static_cast<size_t>(i)];
      auto [it, inserted] = pool_map.try_emplace(
          global_row, static_cast<int32_t>(model.pool_source_rows.size()));
      if (inserted) model.pool_source_rows.push_back(global_row);
      entry.sv_pool_index.push_back(it->second);
      entry.sv_coef.push_back(a * problem.y[static_cast<size_t>(i)]);
    }
    model.classes.push_back(std::move(entry));
    if (report != nullptr) {
      report->solver.Merge(stats);
      report->phases.Merge(stats.phases);
    }
  }
  model.support_vectors = dataset.features().SelectRows(model.pool_source_rows);

  FinishTrainReport(start, executor, report);
  return model;
}

Result<PredictResult> OvaPredict(const OvaModel& model, const CsrMatrix& test,
                                 SimExecutor* executor) {
  const int k = model.num_classes;
  const int64_t n = test.rows();
  if (k < 2 || model.classes.empty()) {
    return Status::FailedPrecondition("OVA model is empty");
  }
  if (test.cols() != model.support_vectors.cols()) {
    return Status::InvalidArgument("test dimensionality mismatch with model");
  }

  Stopwatch wall;
  executor->SynchronizeAll();
  const double sim_base = executor->NowSeconds();

  PredictResult result;
  result.num_instances = n;
  result.num_classes = k;
  result.probabilities.assign(static_cast<size_t>(n) * k, 0.0);
  result.labels.assign(static_cast<size_t>(n), 0);
  if (n == 0) return result;

  KernelComputer computer(&test, &model.support_vectors, model.kernel);
  const int64_t pool = model.support_vectors.rows();
  std::vector<int32_t> test_rows(static_cast<size_t>(n));
  std::iota(test_rows.begin(), test_rows.end(), 0);
  std::vector<int32_t> pool_rows(static_cast<size_t>(pool));
  std::iota(pool_rows.begin(), pool_rows.end(), 0);

  std::vector<double> kblock(static_cast<size_t>(n * pool));
  computer.ComputeBlock(test_rows, pool_rows, executor, kDefaultStream,
                        kblock.data());

  for (int64_t i = 0; i < n; ++i) {
    const double* krow = kblock.data() + i * pool;
    double* out = result.probabilities.data() + i * k;
    double sum = 0.0;
    for (const OvaClassEntry& entry : model.classes) {
      double v = entry.bias;
      for (size_t m = 0; m < entry.sv_pool_index.size(); ++m) {
        v += entry.sv_coef[m] * krow[entry.sv_pool_index[m]];
      }
      out[entry.cls] = entry.sigmoid.Probability(v);
      sum += out[entry.cls];
    }
    if (sum > 0) {
      for (int c = 0; c < k; ++c) out[c] /= sum;
    }
    result.labels[static_cast<size_t>(i)] =
        static_cast<int32_t>(std::max_element(out, out + k) - out);
  }
  TaskCost cost;
  cost.parallel_items = n;
  cost.flops = 2.0 * static_cast<double>(n) *
               static_cast<double>(model.pool_source_rows.size() + 10 * k);
  executor->Charge(kDefaultStream, cost);

  executor->SynchronizeAll();
  result.sim_seconds = executor->NowSeconds() - sim_base;
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace gmpsvm
