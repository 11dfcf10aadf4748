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

#include <algorithm>
#include <limits>
#include <utility>

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
  // second: a NaN input stays NaN, as in the scalar tier.
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

inline __m256d AbsVec(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

// couple_panel with one vector per cell of the augmented matrix [Q | e]
// (leading dimension k+1, rhs in column k); lane L follows the per-row
// SolveDirect (prob/pairwise_coupling.cc) operation for operation. A pivot
// swap exchanges the lane's two rows physically, so position i holds the
// row SolveDirect reaches through perm[i]. The first attempt's ridge of 0.0
// changes no bit of a diagonal (a sum of squares, never -0), so it is not
// added. The elimination runs in blocks of four columns. A block's steps
// first update only the block's own columns, and each row keeps its factor
// in the column it eliminates, so a pivot swap, which exchanges whole rows
// of one lane, moves a row's pending factors with it. Then every element
// right of the block, the rhs included, takes its up-to-four updates from
// registers in step order. Rows finish in ascending order, so the pivot-row
// values an element subtracts already carry the block's earlier steps: each
// element sees the unblocked loop's roundings in the unblocked loop's order.
int CouplePanelAvx2(const double* pairs, int k, double* work, double* out) {
  constexpr int kBlock = 4;
  const int64_t ld = k + 1;
  const auto cell = [work, ld](int64_t i, int64_t j) {
    return work + (i * ld + j) * kPanelRows;
  };
  double* sol = cell(k, 0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign = _mm256_set1_pd(-0.0);

  // Q from the pair probabilities; each diagonal cell sums in ascending u.
  for (int s = 0; s < k; ++s) {
    _mm256_store_pd(cell(s, s), zero);
    _mm256_store_pd(cell(s, k), one);
  }
  const double* p = pairs;
  for (int s = 0; s < k; ++s) {
    __m256d diag = _mm256_load_pd(cell(s, s));
    for (int t = s + 1; t < k; ++t, p += kPanelRows) {
      const __m256d r_st = _mm256_loadu_pd(p);
      const __m256d r_ts = _mm256_sub_pd(one, r_st);
      const __m256d v = _mm256_xor_pd(_mm256_mul_pd(r_st, r_ts), sign);
      _mm256_store_pd(cell(s, t), v);
      _mm256_store_pd(cell(t, s), v);
      _mm256_store_pd(cell(t, t), _mm256_add_pd(_mm256_load_pd(cell(t, t)),
                                                _mm256_mul_pd(r_st, r_st)));
      diag = _mm256_add_pd(diag, _mm256_mul_pd(r_ts, r_ts));
    }
    _mm256_store_pd(cell(s, s), diag);
  }
  __m256d nan = zero;
  for (int s = 0; s < k; ++s) {
    const __m256d d = _mm256_load_pd(cell(s, s));
    nan = _mm256_or_pd(nan, _mm256_cmp_pd(d, d, _CMP_UNORD_Q));
  }
  int redo = _mm256_movemask_pd(nan);

  for (int col0 = 0; col0 < k; col0 += kBlock) {
    const int end = std::min(col0 + kBlock, k);
    for (int c = col0; c < end; ++c) {
      __m256d best = AbsVec(_mm256_load_pd(cell(c, c)));
      __m256d pivot = _mm256_set1_pd(c);
      for (int row = c + 1; row < k; ++row) {
        const __m256d v = AbsVec(_mm256_load_pd(cell(row, c)));
        const __m256d gt = _mm256_cmp_pd(v, best, _CMP_GT_OQ);
        best = _mm256_blendv_pd(best, v, gt);
        pivot = _mm256_blendv_pd(pivot, _mm256_set1_pd(row), gt);
      }
      redo |= _mm256_movemask_pd(
          _mm256_cmp_pd(best, _mm256_set1_pd(1e-12), _CMP_LT_OQ));
      alignas(32) double pivot_row[kPanelRows];
      _mm256_store_pd(pivot_row, pivot);
      for (int lane = 0; lane < kPanelRows; ++lane) {
        const int pr = static_cast<int>(pivot_row[lane]);
        if (pr == c) continue;
        for (int j = col0; j <= k; ++j) {
          std::swap(cell(c, j)[lane], cell(pr, j)[lane]);
        }
      }
      const __m256d inv_pivot =
          _mm256_div_pd(one, _mm256_load_pd(cell(c, c)));
      for (int row = c + 1; row < k; ++row) {
        const __m256d factor =
            _mm256_mul_pd(_mm256_load_pd(cell(row, c)), inv_pivot);
        _mm256_store_pd(cell(row, c), factor);
        const __m256d skip = _mm256_cmp_pd(factor, zero, _CMP_EQ_OQ);
        for (int j = c + 1; j < end; ++j) {
          const __m256d old = _mm256_load_pd(cell(row, j));
          const __m256d upd = _mm256_sub_pd(
              old, _mm256_mul_pd(factor, _mm256_load_pd(cell(c, j))));
          _mm256_store_pd(cell(row, j), _mm256_blendv_pd(upd, old, skip));
        }
      }
    }

    // The trailing update: row `row` takes steps 0..steps-1 of the block.
    const int64_t width = k + 1 - end;  // cells right of the block
    const double* piv[kBlock] = {};     // the block's pivot rows
    for (int s = 0; s < end - col0; ++s) piv[s] = cell(col0 + s, end);
    for (int row = col0 + 1; row < k; ++row) {
      const int steps = std::min(end, row) - col0;
      __m256d f[kBlock];
      __m256d skip[kBlock];
      int any_skip = 0;
      for (int s = 0; s < steps; ++s) {
        f[s] = _mm256_load_pd(cell(row, col0 + s));
        skip[s] = _mm256_cmp_pd(f[s], zero, _CMP_EQ_OQ);
        any_skip |= _mm256_movemask_pd(skip[s]);
      }
      double* dst = cell(row, end);
      if (steps == kBlock && any_skip == 0) {
        // Spelled out: -O2 keeps a loop over f[] and piv[] in memory.
        const __m256d f0 = f[0], f1 = f[1], f2 = f[2], f3 = f[3];
        const double* p0 = piv[0];
        const double* p1 = piv[1];
        const double* p2 = piv[2];
        const double* p3 = piv[3];
        for (int64_t j = 0; j < width * kPanelRows; j += kPanelRows) {
          __m256d v = _mm256_load_pd(dst + j);
          v = _mm256_sub_pd(v, _mm256_mul_pd(f0, _mm256_load_pd(p0 + j)));
          v = _mm256_sub_pd(v, _mm256_mul_pd(f1, _mm256_load_pd(p1 + j)));
          v = _mm256_sub_pd(v, _mm256_mul_pd(f2, _mm256_load_pd(p2 + j)));
          v = _mm256_sub_pd(v, _mm256_mul_pd(f3, _mm256_load_pd(p3 + j)));
          _mm256_store_pd(dst + j, v);
        }
        continue;
      }
      for (int64_t j = 0; j < width * kPanelRows; j += kPanelRows) {
        __m256d v = _mm256_load_pd(dst + j);
        for (int s = 0; s < steps; ++s) {
          const __m256d upd = _mm256_sub_pd(
              v, _mm256_mul_pd(f[s], _mm256_load_pd(piv[s] + j)));
          v = _mm256_blendv_pd(upd, v, skip[s]);
        }
        _mm256_store_pd(dst + j, v);
      }
    }
  }

  // Back substitution: the canonical block-8 tree, one row per lane.
  for (int col = k - 1; col >= 0; --col) {
    const int64_t n = k - col - 1;
    const double* a = cell(col, col + 1);
    const double* b = sol + (col + 1) * kPanelRows;
    const auto prod = [a, b](int64_t i) {
      return _mm256_mul_pd(_mm256_load_pd(a + i * kPanelRows),
                           _mm256_load_pd(b + i * kPanelRows));
    };
    __m256d acc = zero;
    int64_t q = 0;
    for (; q + 8 <= n; q += 8) {
      const __m256d s0 = _mm256_add_pd(prod(q), prod(q + 4));
      const __m256d s1 = _mm256_add_pd(prod(q + 1), prod(q + 5));
      const __m256d s2 = _mm256_add_pd(prod(q + 2), prod(q + 6));
      const __m256d s3 = _mm256_add_pd(prod(q + 3), prod(q + 7));
      acc = _mm256_add_pd(
          acc, _mm256_add_pd(_mm256_add_pd(s0, s2), _mm256_add_pd(s1, s3)));
    }
    for (; q < n; ++q) acc = _mm256_add_pd(acc, prod(q));
    _mm256_store_pd(sol + col * kPanelRows,
                    _mm256_div_pd(_mm256_sub_pd(_mm256_load_pd(cell(col, k)),
                                                acc),
                                  _mm256_load_pd(cell(col, col))));
  }

  // Clamp and normalise. max(0, v) is std::max(v, 0.0): v unless 0 > v.
  __m256d sum = zero;
  for (int s = 0; s < k; ++s) {
    const __m256d v =
        _mm256_max_pd(zero, _mm256_load_pd(sol + s * kPanelRows));
    _mm256_store_pd(sol + s * kPanelRows, v);
    sum = _mm256_add_pd(sum, v);
  }
  redo |= _mm256_movemask_pd(_mm256_cmp_pd(sum, zero, _CMP_NGT_UQ));
  for (int s = 0; s < k; ++s) {
    alignas(32) double v[kPanelRows];
    _mm256_store_pd(v,
                    _mm256_div_pd(_mm256_load_pd(sol + s * kPanelRows), sum));
    for (int lane = 0; lane < kPanelRows; ++lane) out[lane * k + s] = v[lane];
  }
  return redo;
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
      CouplePanelAvx2,
  };
  return &table;
}

}  // namespace gmpsvm::simd

#else  // !x86-64

namespace gmpsvm::simd {
const SimdOps* Avx2OpsTable() { return nullptr; }
}  // namespace gmpsvm::simd

#endif
