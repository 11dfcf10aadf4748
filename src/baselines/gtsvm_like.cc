#include "baselines/gtsvm_like.h"

#include "solver/batch_smo_solver.h"

namespace gmpsvm {

Result<MpSvmModel> GtsvmLikeTrainer::Train(const Dataset& dataset,
                                           SimExecutor* executor,
                                           MpTrainReport* report) const {
  const TrainRunStart start(executor);
  executor->Transfer(kDefaultStream,
                     static_cast<double>(dataset.features().ByteSize()),
                     TransferDirection::kHostToDevice);

  KernelComputer computer(&dataset.features(), options_.kernel);

  BatchSmoOptions solver_options;
  solver_options.working_set.ws_size = options_.working_set_size;
  solver_options.working_set.q = options_.working_set_size;  // full refresh
  solver_options.eps = options_.eps;
  solver_options.inner_policy = BatchSmoOptions::InnerPolicy::kFixed;
  BatchSmoSolver solver(solver_options);

  MpSvmModel model;
  model.num_classes = dataset.num_classes();
  model.c = options_.c;
  model.kernel = options_.kernel;
  std::vector<int32_t> pool_rows;

  for (const auto& [s, t] : dataset.ClassPairs()) {
    BinaryProblem problem =
        dataset.MakePairProblem(s, t, options_.c, options_.kernel);
    SolverStats stats;
    GMP_ASSIGN_OR_RETURN(
        BinarySolution solution,
        solver.Solve(problem, computer, {executor, kDefaultStream}, &stats));
    if (report != nullptr) {
      report->solver.Merge(stats);
      report->phases.Merge(stats.phases);
    }

    BinarySvmEntry entry;
    entry.class_s = s;
    entry.class_t = t;
    entry.bias = solution.bias;
    for (int64_t i = 0; i < problem.n(); ++i) {
      const double a = solution.alpha[static_cast<size_t>(i)];
      if (a <= 0.0) continue;
      entry.sv_pool_index.push_back(static_cast<int32_t>(pool_rows.size()));
      entry.sv_coef.push_back(a * problem.y[static_cast<size_t>(i)]);
      pool_rows.push_back(problem.rows[static_cast<size_t>(i)]);
    }
    model.svms.push_back(std::move(entry));
  }

  model.support_vectors = dataset.features().SelectRows(pool_rows);
  model.pool_source_rows = std::move(pool_rows);

  FinishTrainReport(start, executor, report);
  return model;
}

}  // namespace gmpsvm
