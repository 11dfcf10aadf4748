// Internal: per-tier op-table accessors wired together by simd.cc.
// Tables not compiled for this architecture return nullptr.

#ifndef GMPSVM_SIMD_SIMD_TIERS_H_
#define GMPSVM_SIMD_SIMD_TIERS_H_

#include "simd/simd.h"

namespace gmpsvm::simd {

const SimdOps* ScalarOpsTable();  // always available
const SimdOps* Avx2OpsTable();    // nullptr unless built for x86-64

}  // namespace gmpsvm::simd

#endif  // GMPSVM_SIMD_SIMD_TIERS_H_
