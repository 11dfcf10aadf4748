// SIMD tier switching for tests that run one computation on every tier. The
// process-wide tier (simd::SetActiveTier) is the only selector the library
// reads, so a test compares tiers by switching it for a scope.

#ifndef GMPSVM_TESTS_SIMD_TIER_GUARD_H_
#define GMPSVM_TESTS_SIMD_TIER_GUARD_H_

#include <vector>

#include "common/status.h"
#include "simd/simd.h"

namespace gmpsvm::testing {

// Every tier this CPU can execute, the scalar reference first, so a loop can
// diff each vector tier against it.
inline std::vector<simd::SimdTier> SupportedTiers() {
  std::vector<simd::SimdTier> tiers = {simd::SimdTier::kScalar};
  if (simd::TierSupported(simd::SimdTier::kAvx2)) {
    tiers.push_back(simd::SimdTier::kAvx2);
  }
  return tiers;
}

// Makes `tier` the process-wide tier for the guard's lifetime, then restores
// the tier that was active before.
class ScopedSimdTier {
 public:
  explicit ScopedSimdTier(simd::SimdTier tier)
      : previous_(simd::ActiveTier()) {
    GMP_CHECK_OK(simd::SetActiveTier(tier));
  }
  ~ScopedSimdTier() { GMP_CHECK_OK(simd::SetActiveTier(previous_)); }

  ScopedSimdTier(const ScopedSimdTier&) = delete;
  ScopedSimdTier& operator=(const ScopedSimdTier&) = delete;

 private:
  const simd::SimdTier previous_;
};

}  // namespace gmpsvm::testing

#endif  // GMPSVM_TESTS_SIMD_TIER_GUARD_H_
