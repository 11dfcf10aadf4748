// Scalar reference tier: the canonical arithmetic definition every vector
// tier must reproduce bit for bit. Reductions spell out the blocked-tree
// order (block 8) with explicit temporaries so the compiler cannot
// re-associate them, and transforms call the deterministic math in
// simd_math.h. Compiled with -ffp-contract=off (src/CMakeLists.txt) so no
// silent fma can diverge from a tier that has none.

#include "simd/simd_math.h"
#include "simd/simd_tiers.h"

namespace gmpsvm::simd {
namespace {

// One canonical 8-product block: s_j = c_j + c_{j+4}, then
// (s0 + s2) + (s1 + s3). Matches one AVX2 lo+hi vector add followed by the
// fixed horizontal schedule.
inline double BlockTree(const double c[8]) {
  const double s0 = c[0] + c[4];
  const double s1 = c[1] + c[5];
  const double s2 = c[2] + c[6];
  const double s3 = c[3] + c[7];
  return (s0 + s2) + (s1 + s3);
}

// sum_p vals[p] * dense[idx[p] * kStride] in the canonical tree; kStride is
// 1 for a plain dense row and kPanelRows for one row of an interleaved panel.
template <int64_t kStride>
double StridedGatherDot(const double* vals, const int32_t* idx, int64_t n,
                        const double* dense) {
  double acc = 0.0;
  int64_t p = 0;
  double c[8];
  for (; p + 8 <= n; p += 8) {
    for (int j = 0; j < 8; ++j) c[j] = vals[p + j] * dense[idx[p + j] * kStride];
    acc += BlockTree(c);
  }
  for (; p < n; ++p) acc += vals[p] * dense[idx[p] * kStride];
  return acc;
}

double GatherDotScalar(const double* vals, const int32_t* idx, int64_t n,
                       const double* dense) {
  return StridedGatherDot<1>(vals, idx, n, dense);
}

void GatherDotPanelScalar(const double* vals, const int32_t* idx, int64_t n,
                          const double* panel, double* out) {
  for (int r = 0; r < kPanelRows; ++r) {
    out[r] = StridedGatherDot<kPanelRows>(vals, idx, n, panel + r);
  }
}

double DotScalar(const double* a, const double* b, int64_t n) {
  double acc = 0.0;
  int64_t p = 0;
  double c[8];
  for (; p + 8 <= n; p += 8) {
    for (int j = 0; j < 8; ++j) c[j] = a[p + j] * b[p + j];
    acc += BlockTree(c);
  }
  for (; p < n; ++p) acc += a[p] * b[p];
  return acc;
}

void GaussianTransformScalar(double* out, const double* norms,
                             const int32_t* targets, int64_t n,
                             double norm_row, double gamma) {
  for (int64_t j = 0; j < n; ++j) {
    out[j] = GaussianFromDot(out[j], norm_row, norms[targets[j]], gamma);
  }
}

void PolyTransformScalar(double* out, int64_t n, double gamma, double coef0,
                         int degree) {
  for (int64_t j = 0; j < n; ++j) {
    out[j] = PolynomialFromDot(out[j], gamma, coef0, degree);
  }
}

void SigmoidTransformScalar(double* out, int64_t n, double gamma,
                            double coef0) {
  for (int64_t j = 0; j < n; ++j) {
    out[j] = SigmoidFromDot(out[j], gamma, coef0);
  }
}

void CouplingUpdateScalar(double* qp, double* p, const double* qrow, int64_t n,
                          double diff) {
  const double inv = 1.0 / (1.0 + diff);
  for (int64_t j = 0; j < n; ++j) {
    qp[j] = (qp[j] + diff * qrow[j]) * inv;
    p[j] = p[j] * inv;
  }
}

void AxpyNegScalar(double* y, const double* x, int64_t n, double factor) {
  for (int64_t j = 0; j < n; ++j) y[j] = y[j] - factor * x[j];
}

void MulNegScalar(double* out, const double* a, const double* b, int64_t n) {
  for (int64_t j = 0; j < n; ++j) out[j] = -(a[j] * b[j]);
}

// Hands every lane back to the per-row solve (SolveDirect in
// prob/pairwise_coupling.cc), which is the scalar tier's coupling.
int CouplePanelScalar(const double*, int, double*, double*) {
  return (1 << kPanelRows) - 1;
}

}  // namespace

const SimdOps* ScalarOpsTable() {
  static const SimdOps table = {
      /*name=*/"scalar",
      /*lane_width=*/1,
      GatherDotScalar,
      GatherDotPanelScalar,
      DotScalar,
      GaussianTransformScalar,
      PolyTransformScalar,
      SigmoidTransformScalar,
      CouplingUpdateScalar,
      AxpyNegScalar,
      MulNegScalar,
      CouplePanelScalar,
  };
  return &table;
}

}  // namespace gmpsvm::simd
