// AVX2 tier (4 doubles per register). Compiled with -mavx2 -ffp-contract=off
// on x86-64 only (src/CMakeLists.txt); on other architectures this TU
// provides the nullptr table.
//
// Every routine reproduces the scalar tier bit for bit:
//   * reductions execute the canonical block-8 tree — c_lo/c_hi vector
//     multiply, one vector add (s_j = c_j + c_{j+4}), then the fixed
//     horizontal schedule (s0+s2) + (s1+s3) — with <8-element tails summed
//     sequentially in scalar code;
//   * transforms mirror simd_math.h operation by operation per lane (see
//     the ExpVec comment trail against simd::Exp);
//   * no FMA intrinsics anywhere, matching the contract in simd.h.

#include "simd/simd_tiers.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <limits>

#include "simd/simd_math.h"

namespace gmpsvm::simd {
namespace {

// 2^e per lane for int32 exponents with |e + 1023| fitting the exponent
// field (guaranteed by ExpVec's clamping): widen to int64, bias, shift into
// the exponent bits. Mirrors simd::Pow2.
inline __m256d Pow2Vec(__m128i e32) {
  const __m256i e64 = _mm256_cvtepi32_epi64(e32);
  const __m256i bits =
      _mm256_slli_epi64(_mm256_add_epi64(e64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_castsi256_pd(bits);
}

// Vector twin of simd::Exp — identical IEEE op sequence per lane.
inline __m256d ExpVec(__m256d x) {
  const __m256d lo = _mm256_set1_pd(kExpLo);
  const __m256d hi = _mm256_set1_pd(kExpHi);
  // max/min return their second operand when either is NaN, so x goes
  // second: a NaN input stays NaN, as in the scalar and NEON tiers.
  const __m256d xc = _mm256_min_pd(hi, _mm256_max_pd(lo, x));

  const __m256d nf = _mm256_floor_pd(_mm256_add_pd(
      _mm256_mul_pd(xc, _mm256_set1_pd(kLog2E)), _mm256_set1_pd(0.5)));
  __m256d r = _mm256_sub_pd(xc, _mm256_mul_pd(nf, _mm256_set1_pd(kLn2Hi)));
  r = _mm256_sub_pd(r, _mm256_mul_pd(nf, _mm256_set1_pd(kLn2Lo)));

  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d p = _mm256_mul_pd(
      _mm256_add_pd(
          _mm256_mul_pd(
              _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kExpP0), r2),
                            _mm256_set1_pd(kExpP1)),
              r2),
          _mm256_set1_pd(kExpP2)),
      r);
  const __m256d q = _mm256_add_pd(
      _mm256_mul_pd(
          _mm256_add_pd(
              _mm256_mul_pd(
                  _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kExpQ0), r2),
                                _mm256_set1_pd(kExpQ1)),
                  r2),
              _mm256_set1_pd(kExpQ2)),
          r2),
      _mm256_set1_pd(kExpQ3));
  const __m256d core = _mm256_add_pd(
      _mm256_set1_pd(1.0),
      _mm256_mul_pd(_mm256_set1_pd(2.0),
                    _mm256_div_pd(p, _mm256_sub_pd(q, p))));

  // nf is integral and within int32 range after clamping, so the
  // round-to-nearest cvt is exact. n1 = n >> 1 (arithmetic), n2 = n - n1.
  const __m128i n32 = _mm256_cvtpd_epi32(nf);
  const __m128i n1 = _mm_srai_epi32(n32, 1);
  const __m128i n2 = _mm_sub_epi32(n32, n1);
  __m256d scaled =
      _mm256_mul_pd(_mm256_mul_pd(core, Pow2Vec(n1)), Pow2Vec(n2));

  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  scaled = _mm256_blendv_pd(scaled, inf, _mm256_cmp_pd(x, hi, _CMP_GT_OQ));
  scaled = _mm256_blendv_pd(scaled, _mm256_setzero_pd(),
                            _mm256_cmp_pd(x, lo, _CMP_LT_OQ));
  return scaled;
}

// Vector twin of simd::Tanh. t = 1 - 2/(e^{2|x|}+1) is always >= +0, so
// copysign reduces to OR-ing x's sign bit back in.
inline __m256d TanhVec(__m256d x) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d ax = _mm256_andnot_pd(sign_mask, x);
  const __m256d e = ExpVec(_mm256_mul_pd(_mm256_set1_pd(2.0), ax));
  const __m256d t = _mm256_sub_pd(
      _mm256_set1_pd(1.0),
      _mm256_div_pd(_mm256_set1_pd(2.0),
                    _mm256_add_pd(e, _mm256_set1_pd(1.0))));
  return _mm256_or_pd(t, _mm256_and_pd(sign_mask, x));
}

// [dense[idx[0]], ..., dense[idx[3]]] via four scalar loads. Measured faster
// than _mm256_i32gather_pd on every tested part — hardware gathers are
// microcoded on many server cores (and penalized further by the Downfall
// mitigation) — and bit-identical by construction: a load is a load.
inline __m256d Gather4(const double* dense, const int32_t* idx) {
  return _mm256_set_pd(dense[idx[3]], dense[idx[2]], dense[idx[1]],
                       dense[idx[0]]);
}

// (s0+s2) + (s1+s3) for s = [s0,s1,s2,s3] — the canonical horizontal tail
// of the block-8 tree.
inline double HorizontalTree(__m256d s) {
  const __m128d lo = _mm256_castpd256_pd128(s);
  const __m128d hi = _mm256_extractf128_pd(s, 1);
  const __m128d u = _mm_add_pd(lo, hi);  // [s0+s2, s1+s3]
  return _mm_cvtsd_f64(_mm_add_sd(u, _mm_unpackhi_pd(u, u)));
}

double GatherDotAvx2(const double* vals, const int32_t* idx, int64_t n,
                     const double* dense) {
  double acc = 0.0;
  int64_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const __m256d c_lo = _mm256_mul_pd(_mm256_loadu_pd(vals + p),
                                       Gather4(dense, idx + p));
    const __m256d c_hi = _mm256_mul_pd(_mm256_loadu_pd(vals + p + 4),
                                       Gather4(dense, idx + p + 4));
    acc += HorizontalTree(_mm256_add_pd(c_lo, c_hi));
  }
  for (; p < n; ++p) acc += vals[p] * dense[idx[p]];
  return acc;
}

// Lane r of the result is product vals[q] * (panel row r)[idx[q]]: one
// broadcast and one aligned 4-row load per nonzero.
inline __m256d PanelProduct(const double* vals, const int32_t* idx,
                            const double* panel, int64_t q) {
  return _mm256_mul_pd(
      _mm256_set1_pd(vals[q]),
      _mm256_load_pd(panel + static_cast<int64_t>(idx[q]) * kPanelRows));
}

// The block-8 tree of GatherDotAvx2, run lane-wise: s_j = c_j + c_{j+4},
// block = (s0 + s2) + (s1 + s3), accumulated left to right, tail
// sequential. No horizontal step — each lane is already one row's sum.
void GatherDotPanelAvx2(const double* vals, const int32_t* idx, int64_t n,
                        const double* panel, double* out) {
  __m256d acc = _mm256_setzero_pd();
  int64_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const __m256d s0 = _mm256_add_pd(PanelProduct(vals, idx, panel, p),
                                     PanelProduct(vals, idx, panel, p + 4));
    const __m256d s1 = _mm256_add_pd(PanelProduct(vals, idx, panel, p + 1),
                                     PanelProduct(vals, idx, panel, p + 5));
    const __m256d s2 = _mm256_add_pd(PanelProduct(vals, idx, panel, p + 2),
                                     PanelProduct(vals, idx, panel, p + 6));
    const __m256d s3 = _mm256_add_pd(PanelProduct(vals, idx, panel, p + 3),
                                     PanelProduct(vals, idx, panel, p + 7));
    acc = _mm256_add_pd(
        acc, _mm256_add_pd(_mm256_add_pd(s0, s2), _mm256_add_pd(s1, s3)));
  }
  for (; p < n; ++p) {
    acc = _mm256_add_pd(acc, PanelProduct(vals, idx, panel, p));
  }
  _mm256_storeu_pd(out, acc);
}

double DotAvx2(const double* a, const double* b, int64_t n) {
  double acc = 0.0;
  int64_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const __m256d c_lo =
        _mm256_mul_pd(_mm256_loadu_pd(a + p), _mm256_loadu_pd(b + p));
    const __m256d c_hi =
        _mm256_mul_pd(_mm256_loadu_pd(a + p + 4), _mm256_loadu_pd(b + p + 4));
    acc += HorizontalTree(_mm256_add_pd(c_lo, c_hi));
  }
  for (; p < n; ++p) acc += a[p] * b[p];
  return acc;
}

void GaussianTransformAvx2(double* out, const double* norms,
                           const int32_t* targets, int64_t n, double norm_row,
                           double gamma) {
  const __m256d vnr = _mm256_set1_pd(norm_row);
  const __m256d vtwo = _mm256_set1_pd(2.0);
  const __m256d vng = _mm256_set1_pd(-gamma);
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d nj = Gather4(norms, targets + j);
    const __m256d dot = _mm256_loadu_pd(out + j);
    const __m256d arg =
        _mm256_sub_pd(_mm256_add_pd(vnr, nj), _mm256_mul_pd(vtwo, dot));
    _mm256_storeu_pd(out + j, ExpVec(_mm256_mul_pd(vng, arg)));
  }
  for (; j < n; ++j) {
    out[j] = GaussianFromDot(out[j], norm_row, norms[targets[j]], gamma);
  }
}

void PolyTransformAvx2(double* out, int64_t n, double gamma, double coef0,
                       int degree) {
  const __m256d vg = _mm256_set1_pd(gamma);
  const __m256d vc0 = _mm256_set1_pd(coef0);
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d base = _mm256_add_pd(
        _mm256_mul_pd(vg, _mm256_loadu_pd(out + j)), vc0);
    // Repeated squaring, same multiply sequence as simd::PowInt (degree is
    // uniform across the row).
    __m256d result = _mm256_set1_pd(1.0);
    if (degree > 0) {
      __m256d b = base;
      int e = degree;
      while (true) {
        if ((e & 1) != 0) result = _mm256_mul_pd(result, b);
        e >>= 1;
        if (e == 0) break;
        b = _mm256_mul_pd(b, b);
      }
    }
    _mm256_storeu_pd(out + j, result);
  }
  for (; j < n; ++j) out[j] = PolynomialFromDot(out[j], gamma, coef0, degree);
}

void SigmoidTransformAvx2(double* out, int64_t n, double gamma, double coef0) {
  const __m256d vg = _mm256_set1_pd(gamma);
  const __m256d vc0 = _mm256_set1_pd(coef0);
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d t =
        _mm256_add_pd(_mm256_mul_pd(vg, _mm256_loadu_pd(out + j)), vc0);
    _mm256_storeu_pd(out + j, TanhVec(t));
  }
  for (; j < n; ++j) out[j] = SigmoidFromDot(out[j], gamma, coef0);
}

void CouplingUpdateAvx2(double* qp, double* p, const double* qrow, int64_t n,
                        double diff) {
  const double inv = 1.0 / (1.0 + diff);
  const __m256d vd = _mm256_set1_pd(diff);
  const __m256d vinv = _mm256_set1_pd(inv);
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d nqp = _mm256_mul_pd(
        _mm256_add_pd(_mm256_loadu_pd(qp + j),
                      _mm256_mul_pd(vd, _mm256_loadu_pd(qrow + j))),
        vinv);
    _mm256_storeu_pd(qp + j, nqp);
    _mm256_storeu_pd(p + j, _mm256_mul_pd(_mm256_loadu_pd(p + j), vinv));
  }
  for (; j < n; ++j) {
    qp[j] = (qp[j] + diff * qrow[j]) * inv;
    p[j] = p[j] * inv;
  }
}

void MulNegAvx2(double* out, const double* a, const double* b, int64_t n) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j));
    _mm256_storeu_pd(out + j, _mm256_xor_pd(prod, sign_mask));
  }
  for (; j < n; ++j) out[j] = -(a[j] * b[j]);
}

void AxpyNegAvx2(double* y, const double* x, int64_t n, double factor) {
  const __m256d vf = _mm256_set1_pd(factor);
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        y + j, _mm256_sub_pd(_mm256_loadu_pd(y + j),
                             _mm256_mul_pd(vf, _mm256_loadu_pd(x + j))));
  }
  for (; j < n; ++j) y[j] = y[j] - factor * x[j];
}

}  // namespace

const SimdOps* Avx2OpsTable() {
  static const SimdOps table = {
      /*name=*/"avx2",
      /*lane_width=*/4,
      GatherDotAvx2,
      GatherDotPanelAvx2,
      DotAvx2,
      GaussianTransformAvx2,
      PolyTransformAvx2,
      SigmoidTransformAvx2,
      CouplingUpdateAvx2,
      AxpyNegAvx2,
      MulNegAvx2,
  };
  return &table;
}

}  // namespace gmpsvm::simd

#else  // !x86-64

namespace gmpsvm::simd {
const SimdOps* Avx2OpsTable() { return nullptr; }
}  // namespace gmpsvm::simd

#endif
