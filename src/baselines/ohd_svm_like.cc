#include "baselines/ohd_svm_like.h"

namespace gmpsvm {

Result<BinarySolution> OhdSvmLikeTrainer::Train(const Dataset& dataset,
                                                SimExecutor* executor,
                                                SolverStats* stats) const {
  if (dataset.num_classes() != 2) {
    return Status::InvalidArgument("OHD-SVM supports binary problems only");
  }
  executor->Transfer(kDefaultStream,
                     static_cast<double>(dataset.features().ByteSize()),
                     TransferDirection::kHostToDevice);
  KernelComputer computer(&dataset.features(), options_.kernel);
  BinaryProblem problem = dataset.MakePairProblem(0, 1, options_.c, options_.kernel);

  BatchSmoOptions solver_options;
  solver_options.working_set.ws_size = options_.working_set_size;
  solver_options.working_set.q = options_.working_set_size;  // full refresh
  solver_options.eps = options_.eps;
  solver_options.inner_policy = BatchSmoOptions::InnerPolicy::kFixed;
  BatchSmoSolver solver(solver_options);
  return solver.Solve(problem, computer, {executor, kDefaultStream}, stats);
}

}  // namespace gmpsvm
