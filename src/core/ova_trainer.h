// One-vs-all (OVA) multi-class probabilistic SVMs — the alternative
// decomposition the paper's related-work section discusses (Rifkin & Klautau
// defend it; Wu et al. and LibSVM prefer pairwise coupling). Provided as an
// extension so the two decompositions can be compared on cost and accuracy:
// k binary SVMs (class c vs the rest of the data, so each sees ALL n
// instances — the reason OVA training is usually slower than one-vs-one's
// k(k-1)/2 smaller problems), Platt sigmoid per class, probabilities by
// normalizing the per-class sigmoid outputs.

#ifndef GMPSVM_CORE_OVA_TRAINER_H_
#define GMPSVM_CORE_OVA_TRAINER_H_

#include <cstdint>

#include "core/dataset.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "device/executor.h"
#include "prob/platt.h"

namespace gmpsvm {

struct OvaClassEntry {
  int cls = 0;
  std::vector<int32_t> sv_pool_index;
  std::vector<double> sv_coef;
  double bias = 0.0;
  SigmoidParams sigmoid;
};

struct OvaModel {
  int num_classes = 0;
  double c = 1.0;
  KernelParams kernel;
  CsrMatrix support_vectors;  // shared pool, deduplicated
  std::vector<int32_t> pool_source_rows;
  std::vector<OvaClassEntry> classes;
};

class OvaTrainer {
 public:
  // Reuses MpTrainOptions; the pairwise-specific fields (kernel-block
  // sharing) are ignored — OVA problems span all classes, so class-block
  // sharing does not apply. Train validates them (MpTrainOptions::Validate)
  // before touching the data.
  explicit OvaTrainer(const MpTrainOptions& options) : options_(options) {}

  Result<OvaModel> Train(const Dataset& dataset, SimExecutor* executor,
                         MpTrainReport* report) const;

 private:
  MpTrainOptions options_;
};

// Predicts normalized per-class probabilities; labels are argmax.
Result<PredictResult> OvaPredict(const OvaModel& model, const CsrMatrix& test,
                                 SimExecutor* executor);

}  // namespace gmpsvm

#endif  // GMPSVM_CORE_OVA_TRAINER_H_
