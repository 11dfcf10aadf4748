// The Gaussian kernel K(x_i, x_j) = exp(-γ ||x_i - x_j||²), the one kernel
// of Section 2.1 that every experiment in the paper trains with (Table 2
// gives each dataset's C and γ). It is expressed as a transform of the dot
// product x_i·x_j and the two squared row norms, which is what lets batched
// kernel rows be computed as one sparse matrix product followed by an
// elementwise map — the schedule GMP-SVM uses on the GPU.

#ifndef GMPSVM_KERNEL_KERNEL_FUNCTION_H_
#define GMPSVM_KERNEL_KERNEL_FUNCTION_H_

#include <string>

#include "common/status.h"
#include "simd/simd_math.h"

namespace gmpsvm {

enum class KernelType { kGaussian };

// "gaussian"; the reverse accepts "gaussian" and "rbf" and rejects every
// other name with InvalidArgument.
const char* KernelTypeToString(KernelType type);
Result<KernelType> KernelTypeFromString(const std::string& name);

struct KernelParams {
  KernelType type = KernelType::kGaussian;
  double gamma = 1.0;  // γ
};

// Stateless evaluator mapping (dot, ||x_i||², ||x_j||²) -> K(x_i, x_j).
class KernelFunction {
 public:
  explicit KernelFunction(const KernelParams& params) : params_(params) {}

  const KernelParams& params() const { return params_; }

  // Uses the deterministic transform from simd/simd_math.h, so a scalar
  // FromDot is bit-identical to the vectorized row transform in every tier.
  double FromDot(double dot, double norm_i, double norm_j) const {
    return simd::GaussianFromDot(dot, norm_i, norm_j, params_.gamma);
  }

  // K(x, x) given ||x||².
  double SelfKernel(double norm) const { return FromDot(norm, norm, norm); }

  // Arithmetic ops per transformed value, for cost accounting (exp counts
  // as several flops on both substrates).
  double FlopsPerValue() const { return 8.0; }

 private:
  KernelParams params_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_KERNEL_KERNEL_FUNCTION_H_
