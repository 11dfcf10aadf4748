#include "baselines/libsvm_ref.h"

namespace gmpsvm {

MpTrainOptions LibsvmTrainOptions(double c, const KernelParams& kernel,
                                  double eps) {
  MpTrainOptions options;
  options.c = c;
  options.kernel = kernel;
  options.smo.eps = eps;
  options.smo.cache_bytes = 100ull << 20;  // LibSVM's -m 100 default
  options.smo.cache_on_device = false;     // host RAM
  options.platt_parallel_candidates = 1;
  options.share_support_vectors = true;  // LibSVM model files store SVs once
  return options;
}

PredictOptions LibsvmPredictOptions() {
  PredictOptions options;
  // LibSVM computes each test instance's kernel values against the SV pool
  // once (k_function per SV), shared across the k(k-1)/2 decision values.
  options.share_kernel_values = true;
  options.max_concurrent_svms = 1;
  options.coupling.method = CouplingMethod::kIterative;
  return options;
}

}  // namespace gmpsvm
