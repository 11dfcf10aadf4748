// LibSVM reference implementation: the paper's CPU comparator and the
// ground truth for the Table 4 classifier-identity claim.
//
// This is a faithful reimplementation of LibSVM's C-SVC pipeline on the CPU
// substrate: classic SMO with the Fan-et-al. second-order working-set
// heuristic and an LRU kernel-row cache (100 MB default), pairwise one-vs-one
// decomposition, Platt sigmoid fitting (single candidate per Newton step),
// and Wu et al. ITERATIVE pairwise coupling. "LibSVM with OpenMP" is the
// same algorithm on a multi-threaded CPU executor model (kernel-row
// computation is what LibSVM parallelizes).
//
// Deviation from stock LibSVM, shared by every implementation here so the
// comparison stays apples-to-apples (documented in DESIGN.md): sigmoids are
// fitted on the training-set decision values, as the paper's Algorithm 2
// describes, not on 5-fold cross-validated values.

#ifndef GMPSVM_BASELINES_LIBSVM_REF_H_
#define GMPSVM_BASELINES_LIBSVM_REF_H_

#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "device/executor.h"

namespace gmpsvm {

// Training options replicating LibSVM's defaults for C-SVC.
MpTrainOptions LibsvmTrainOptions(double c, const KernelParams& kernel,
                                  double eps = 1e-3);

// Prediction options replicating LibSVM's svm_predict_probability path.
PredictOptions LibsvmPredictOptions();

class LibsvmRefTrainer {
 public:
  LibsvmRefTrainer(double c, const KernelParams& kernel, double eps = 1e-3)
      : trainer_(LibsvmTrainOptions(c, kernel, eps)) {}

  Result<MpSvmModel> Train(const Dataset& dataset, SimExecutor* executor,
                           MpTrainReport* report) const {
    return trainer_.Train(dataset, executor, report);
  }

 private:
  SequentialMpTrainer trainer_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_BASELINES_LIBSVM_REF_H_
