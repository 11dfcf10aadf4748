// NEON tier (aarch64, 2 doubles per register). NEON is baseline on aarch64
// so no runtime probe is needed; elsewhere this TU provides the nullptr
// table. Compiled with -ffp-contract=off like every tier (no fma — see
// simd.h).
//
// The block-8 reduction tree is reached with four 2-lane vectors:
//   va=[c0,c1] vb=[c2,c3] vc=[c4,c5] vd=[c6,c7]
//   s01 = va+vc = [s0,s1], s23 = vb+vd = [s2,s3]
//   u = s01+s23 = [s0+s2, s1+s3],  block = u[0] + u[1]
// — exactly the scalar tier's (s0+s2) + (s1+s3). Lacking a gather
// instruction, indexed loads are assembled scalar-wise; the arithmetic
// order is what the contract fixes, not the load schedule.

#include "simd/simd_tiers.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <limits>

#include "simd/simd_math.h"

namespace gmpsvm::simd {
namespace {

inline float64x2_t Pow2Vec(int64x2_t e) {
  return vreinterpretq_f64_s64(
      vshlq_n_s64(vaddq_s64(e, vdupq_n_s64(1023)), 52));
}

// Vector twin of simd::Exp — identical IEEE op sequence per lane.
inline float64x2_t ExpVec(float64x2_t x) {
  const float64x2_t lo = vdupq_n_f64(kExpLo);
  const float64x2_t hi = vdupq_n_f64(kExpHi);
  const float64x2_t xc = vminq_f64(vmaxq_f64(x, lo), hi);

  const float64x2_t nf = vrndmq_f64(
      vaddq_f64(vmulq_f64(xc, vdupq_n_f64(kLog2E)), vdupq_n_f64(0.5)));
  float64x2_t r = vsubq_f64(xc, vmulq_f64(nf, vdupq_n_f64(kLn2Hi)));
  r = vsubq_f64(r, vmulq_f64(nf, vdupq_n_f64(kLn2Lo)));

  const float64x2_t r2 = vmulq_f64(r, r);
  const float64x2_t p = vmulq_f64(
      vaddq_f64(vmulq_f64(vaddq_f64(vmulq_f64(vdupq_n_f64(kExpP0), r2),
                                    vdupq_n_f64(kExpP1)),
                          r2),
                vdupq_n_f64(kExpP2)),
      r);
  const float64x2_t q = vaddq_f64(
      vmulq_f64(
          vaddq_f64(vmulq_f64(vaddq_f64(vmulq_f64(vdupq_n_f64(kExpQ0), r2),
                                        vdupq_n_f64(kExpQ1)),
                              r2),
                    vdupq_n_f64(kExpQ2)),
          r2),
      vdupq_n_f64(kExpQ3));
  const float64x2_t core =
      vaddq_f64(vdupq_n_f64(1.0),
                vmulq_f64(vdupq_n_f64(2.0), vdivq_f64(p, vsubq_f64(q, p))));

  // nf is integral, so the toward-zero cvt is exact.
  const int64x2_t n = vcvtq_s64_f64(nf);
  const int64x2_t n1 = vshrq_n_s64(n, 1);  // arithmetic: floor(n/2)
  const int64x2_t n2 = vsubq_s64(n, n1);
  float64x2_t scaled = vmulq_f64(vmulq_f64(core, Pow2Vec(n1)), Pow2Vec(n2));

  const float64x2_t inf =
      vdupq_n_f64(std::numeric_limits<double>::infinity());
  scaled = vbslq_f64(vcgtq_f64(x, hi), inf, scaled);
  scaled = vbslq_f64(vcltq_f64(x, lo), vdupq_n_f64(0.0), scaled);
  return scaled;
}

inline float64x2_t TanhVec(float64x2_t x) {
  const float64x2_t ax = vabsq_f64(x);
  const float64x2_t e = ExpVec(vmulq_f64(vdupq_n_f64(2.0), ax));
  const float64x2_t t =
      vsubq_f64(vdupq_n_f64(1.0),
                vdivq_f64(vdupq_n_f64(2.0), vaddq_f64(e, vdupq_n_f64(1.0))));
  // t >= +0, so copysign is an OR of x's sign bit.
  const uint64x2_t sign =
      vandq_u64(vreinterpretq_u64_f64(x), vdupq_n_u64(0x8000000000000000ULL));
  return vreinterpretq_f64_u64(vorrq_u64(vreinterpretq_u64_f64(t), sign));
}

inline double Block8(float64x2_t va, float64x2_t vb, float64x2_t vc,
                     float64x2_t vd) {
  const float64x2_t s01 = vaddq_f64(va, vc);
  const float64x2_t s23 = vaddq_f64(vb, vd);
  const float64x2_t u = vaddq_f64(s01, s23);
  return vgetq_lane_f64(u, 0) + vgetq_lane_f64(u, 1);
}

inline float64x2_t GatherPair(const double* dense, const int32_t* idx) {
  const double g[2] = {dense[idx[0]], dense[idx[1]]};
  return vld1q_f64(g);
}

double GatherDotNeon(const double* vals, const int32_t* idx, int64_t n,
                     const double* dense) {
  double acc = 0.0;
  int64_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const float64x2_t va =
        vmulq_f64(vld1q_f64(vals + p), GatherPair(dense, idx + p));
    const float64x2_t vb =
        vmulq_f64(vld1q_f64(vals + p + 2), GatherPair(dense, idx + p + 2));
    const float64x2_t vc =
        vmulq_f64(vld1q_f64(vals + p + 4), GatherPair(dense, idx + p + 4));
    const float64x2_t vd =
        vmulq_f64(vld1q_f64(vals + p + 6), GatherPair(dense, idx + p + 6));
    acc += Block8(va, vb, vc, vd);
  }
  for (; p < n; ++p) acc += vals[p] * dense[idx[p]];
  return acc;
}

// Products vals[q] * (panel rows 0..3)[idx[q]] as two 2-row vectors.
struct PanelPair {
  float64x2_t lo, hi;
};

inline PanelPair PanelProduct(const double* vals, const int32_t* idx,
                              const double* panel, int64_t q) {
  const float64x2_t v = vdupq_n_f64(vals[q]);
  const double* col = panel + static_cast<int64_t>(idx[q]) * kPanelRows;
  return {vmulq_f64(v, vld1q_f64(col)), vmulq_f64(v, vld1q_f64(col + 2))};
}

inline PanelPair AddPair(PanelPair a, PanelPair b) {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}

// The block-8 tree of GatherDotNeon run lane-wise, one panel row per lane
// (see GatherDotPanelAvx2). Unverified: no aarch64 build has compiled this
// or run simd_test/ops_test against it, so its bitwise identity to
// GatherDotNeon is by construction only.
void GatherDotPanelNeon(const double* vals, const int32_t* idx, int64_t n,
                        const double* panel, double* out) {
  PanelPair acc = {vdupq_n_f64(0.0), vdupq_n_f64(0.0)};
  int64_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const PanelPair s0 = AddPair(PanelProduct(vals, idx, panel, p),
                                 PanelProduct(vals, idx, panel, p + 4));
    const PanelPair s1 = AddPair(PanelProduct(vals, idx, panel, p + 1),
                                 PanelProduct(vals, idx, panel, p + 5));
    const PanelPair s2 = AddPair(PanelProduct(vals, idx, panel, p + 2),
                                 PanelProduct(vals, idx, panel, p + 6));
    const PanelPair s3 = AddPair(PanelProduct(vals, idx, panel, p + 3),
                                 PanelProduct(vals, idx, panel, p + 7));
    acc = AddPair(acc, AddPair(AddPair(s0, s2), AddPair(s1, s3)));
  }
  for (; p < n; ++p) acc = AddPair(acc, PanelProduct(vals, idx, panel, p));
  vst1q_f64(out, acc.lo);
  vst1q_f64(out + 2, acc.hi);
}

double DotNeon(const double* a, const double* b, int64_t n) {
  double acc = 0.0;
  int64_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const float64x2_t va = vmulq_f64(vld1q_f64(a + p), vld1q_f64(b + p));
    const float64x2_t vb =
        vmulq_f64(vld1q_f64(a + p + 2), vld1q_f64(b + p + 2));
    const float64x2_t vc =
        vmulq_f64(vld1q_f64(a + p + 4), vld1q_f64(b + p + 4));
    const float64x2_t vd =
        vmulq_f64(vld1q_f64(a + p + 6), vld1q_f64(b + p + 6));
    acc += Block8(va, vb, vc, vd);
  }
  for (; p < n; ++p) acc += a[p] * b[p];
  return acc;
}

void GaussianTransformNeon(double* out, const double* norms,
                           const int32_t* targets, int64_t n, double norm_row,
                           double gamma) {
  const float64x2_t vnr = vdupq_n_f64(norm_row);
  const float64x2_t vtwo = vdupq_n_f64(2.0);
  const float64x2_t vng = vdupq_n_f64(-gamma);
  int64_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t nj = GatherPair(norms, targets + j);
    const float64x2_t dot = vld1q_f64(out + j);
    const float64x2_t arg =
        vsubq_f64(vaddq_f64(vnr, nj), vmulq_f64(vtwo, dot));
    vst1q_f64(out + j, ExpVec(vmulq_f64(vng, arg)));
  }
  for (; j < n; ++j) {
    out[j] = GaussianFromDot(out[j], norm_row, norms[targets[j]], gamma);
  }
}

void PolyTransformNeon(double* out, int64_t n, double gamma, double coef0,
                       int degree) {
  const float64x2_t vg = vdupq_n_f64(gamma);
  const float64x2_t vc0 = vdupq_n_f64(coef0);
  int64_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t base =
        vaddq_f64(vmulq_f64(vg, vld1q_f64(out + j)), vc0);
    float64x2_t result = vdupq_n_f64(1.0);
    if (degree > 0) {
      float64x2_t b = base;
      int e = degree;
      while (true) {
        if ((e & 1) != 0) result = vmulq_f64(result, b);
        e >>= 1;
        if (e == 0) break;
        b = vmulq_f64(b, b);
      }
    }
    vst1q_f64(out + j, result);
  }
  for (; j < n; ++j) out[j] = PolynomialFromDot(out[j], gamma, coef0, degree);
}

void SigmoidTransformNeon(double* out, int64_t n, double gamma, double coef0) {
  const float64x2_t vg = vdupq_n_f64(gamma);
  const float64x2_t vc0 = vdupq_n_f64(coef0);
  int64_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t t =
        vaddq_f64(vmulq_f64(vg, vld1q_f64(out + j)), vc0);
    vst1q_f64(out + j, TanhVec(t));
  }
  for (; j < n; ++j) out[j] = SigmoidFromDot(out[j], gamma, coef0);
}

void CouplingUpdateNeon(double* qp, double* p, const double* qrow, int64_t n,
                        double diff) {
  const double inv = 1.0 / (1.0 + diff);
  const float64x2_t vd = vdupq_n_f64(diff);
  const float64x2_t vinv = vdupq_n_f64(inv);
  int64_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t nqp = vmulq_f64(
        vaddq_f64(vld1q_f64(qp + j), vmulq_f64(vd, vld1q_f64(qrow + j))),
        vinv);
    vst1q_f64(qp + j, nqp);
    vst1q_f64(p + j, vmulq_f64(vld1q_f64(p + j), vinv));
  }
  for (; j < n; ++j) {
    qp[j] = (qp[j] + diff * qrow[j]) * inv;
    p[j] = p[j] * inv;
  }
}

void MulNegNeon(double* out, const double* a, const double* b, int64_t n) {
  int64_t j = 0;
  for (; j + 2 <= n; j += 2) {
    vst1q_f64(out + j, vnegq_f64(vmulq_f64(vld1q_f64(a + j),
                                           vld1q_f64(b + j))));
  }
  for (; j < n; ++j) out[j] = -(a[j] * b[j]);
}

void AxpyNegNeon(double* y, const double* x, int64_t n, double factor) {
  const float64x2_t vf = vdupq_n_f64(factor);
  int64_t j = 0;
  for (; j + 2 <= n; j += 2) {
    vst1q_f64(y + j, vsubq_f64(vld1q_f64(y + j),
                               vmulq_f64(vf, vld1q_f64(x + j))));
  }
  for (; j < n; ++j) y[j] = y[j] - factor * x[j];
}

}  // namespace

const SimdOps* NeonOpsTable() {
  static const SimdOps table = {
      /*name=*/"neon",
      /*lane_width=*/2,
      GatherDotNeon,
      GatherDotPanelNeon,
      DotNeon,
      GaussianTransformNeon,
      PolyTransformNeon,
      SigmoidTransformNeon,
      CouplingUpdateNeon,
      AxpyNegNeon,
      MulNegNeon,
      // Every lane per row, as on the scalar tier, until a NEON panel solve
      // can be compiled, tested and timed on aarch64.
      ScalarOpsTable()->couple_panel,
  };
  return &table;
}

}  // namespace gmpsvm::simd

#else  // !aarch64

namespace gmpsvm::simd {
const SimdOps* NeonOpsTable() { return nullptr; }
}  // namespace gmpsvm::simd

#endif
