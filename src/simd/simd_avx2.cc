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

// The block-8 tree of GatherDotAvx2, run lane-wise over kGroups vectors of
// 4 panel rows each: s_j = c_j + c_{j+4}, block = (s0 + s2) + (s1 + s3),
// accumulated left to right, tail sequential. No horizontal step — each
// lane is already one row's sum. Each nonzero is one index load and one
// broadcast, feeding one aligned load and one multiply per group.
template <int kGroups>
void PanelDotsAvx2(const double* vals, const int32_t* idx, int64_t n,
                   const double* panel, double* out) {
  // The loops over groups and block positions are unrolled by pragma: -O2
  // left them rolled, with every vector of v, s and acc on the stack.
  constexpr int64_t kRows = 4 * kGroups;
  __m256d acc[kGroups];
#pragma GCC unroll 4
  for (int g = 0; g < kGroups; ++g) acc[g] = _mm256_setzero_pd();
  int64_t p = 0;
  for (; p + 8 <= n; p += 8) {
    __m256d v[8];
    const double* col[8];
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      v[j] = _mm256_set1_pd(vals[p + j]);
      col[j] = panel + static_cast<int64_t>(idx[p + j]) * kRows;
    }
#pragma GCC unroll 4
    for (int g = 0; g < kGroups; ++g) {
      __m256d s[4];
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) {
        s[j] = _mm256_add_pd(
            _mm256_mul_pd(v[j], _mm256_load_pd(col[j] + 4 * g)),
            _mm256_mul_pd(v[j + 4], _mm256_load_pd(col[j + 4] + 4 * g)));
      }
      acc[g] = _mm256_add_pd(acc[g], _mm256_add_pd(_mm256_add_pd(s[0], s[2]),
                                                   _mm256_add_pd(s[1], s[3])));
    }
  }
  for (; p < n; ++p) {
    const __m256d v = _mm256_set1_pd(vals[p]);
    const double* col = panel + static_cast<int64_t>(idx[p]) * kRows;
#pragma GCC unroll 4
    for (int g = 0; g < kGroups; ++g) {
      acc[g] = _mm256_add_pd(acc[g],
                             _mm256_mul_pd(v, _mm256_load_pd(col + 4 * g)));
    }
  }
#pragma GCC unroll 4
  for (int g = 0; g < kGroups; ++g) _mm256_storeu_pd(out + 4 * g, acc[g]);
}

void GatherDotPanelAvx2(const double* vals, const int32_t* idx, int64_t n,
                        const double* panel, int rows, double* out) {
  switch (rows) {
    case 16:
      return PanelDotsAvx2<4>(vals, idx, n, panel, out);
    case 8:
      return PanelDotsAvx2<2>(vals, idx, n, panel, out);
    default:
      return PanelDotsAvx2<1>(vals, idx, n, panel, out);
  }
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

// kVecs AVX2 vectors side by side, lanes 4g..4g+3 in v[g]: one cell of a
// coupling panel of 4 * kVecs rows. Each helper below applies one
// intrinsic per vector; its loop is unrolled by pragma so that -O2 keeps
// the vectors in registers, as in PanelDotsAvx2.
template <int kVecs>
struct Lanes {
  __m256d v[kVecs];
};

template <int kVecs, typename Fn>
inline Lanes<kVecs> Each(const Fn& fn) {
  Lanes<kVecs> r;
#pragma GCC unroll 2
  for (int g = 0; g < kVecs; ++g) r.v[g] = fn(g);
  return r;
}

template <int kVecs>
inline Lanes<kVecs> Set1(double x) {
  return Each<kVecs>([x](int) { return _mm256_set1_pd(x); });
}

template <int kVecs>
inline Lanes<kVecs> Load(const double* p) {
  return Each<kVecs>([p](int g) { return _mm256_load_pd(p + 4 * g); });
}

template <int kVecs>
inline Lanes<kVecs> LoadU(const double* p) {
  return Each<kVecs>([p](int g) { return _mm256_loadu_pd(p + 4 * g); });
}

template <int kVecs>
inline void Store(double* p, const Lanes<kVecs>& a) {
#pragma GCC unroll 2
  for (int g = 0; g < kVecs; ++g) _mm256_store_pd(p + 4 * g, a.v[g]);
}

template <int kVecs>
inline Lanes<kVecs> Add(const Lanes<kVecs>& a, const Lanes<kVecs>& b) {
  return Each<kVecs>([&](int g) { return _mm256_add_pd(a.v[g], b.v[g]); });
}

template <int kVecs>
inline Lanes<kVecs> Sub(const Lanes<kVecs>& a, const Lanes<kVecs>& b) {
  return Each<kVecs>([&](int g) { return _mm256_sub_pd(a.v[g], b.v[g]); });
}

template <int kVecs>
inline Lanes<kVecs> Mul(const Lanes<kVecs>& a, const Lanes<kVecs>& b) {
  return Each<kVecs>([&](int g) { return _mm256_mul_pd(a.v[g], b.v[g]); });
}

template <int kVecs>
inline Lanes<kVecs> Div(const Lanes<kVecs>& a, const Lanes<kVecs>& b) {
  return Each<kVecs>([&](int g) { return _mm256_div_pd(a.v[g], b.v[g]); });
}

template <int kVecs>
inline Lanes<kVecs> Or(const Lanes<kVecs>& a, const Lanes<kVecs>& b) {
  return Each<kVecs>([&](int g) { return _mm256_or_pd(a.v[g], b.v[g]); });
}

template <int kVecs>
inline Lanes<kVecs> Xor(const Lanes<kVecs>& a, const Lanes<kVecs>& b) {
  return Each<kVecs>([&](int g) { return _mm256_xor_pd(a.v[g], b.v[g]); });
}

// a > b ? a : b per lane, so b when either is NaN.
template <int kVecs>
inline Lanes<kVecs> Max(const Lanes<kVecs>& a, const Lanes<kVecs>& b) {
  return Each<kVecs>([&](int g) { return _mm256_max_pd(a.v[g], b.v[g]); });
}

// |a|: a with its sign bit cleared.
template <int kVecs>
inline Lanes<kVecs> Abs(const Lanes<kVecs>& a) {
  return Each<kVecs>([&](int g) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v[g]);
  });
}

// b where `mask` is set, else a.
template <int kVecs>
inline Lanes<kVecs> Blend(const Lanes<kVecs>& a, const Lanes<kVecs>& b,
                          const Lanes<kVecs>& mask) {
  return Each<kVecs>(
      [&](int g) { return _mm256_blendv_pd(a.v[g], b.v[g], mask.v[g]); });
}

template <int kPredicate, int kVecs>
inline Lanes<kVecs> Cmp(const Lanes<kVecs>& a, const Lanes<kVecs>& b) {
  return Each<kVecs>(
      [&](int g) { return _mm256_cmp_pd(a.v[g], b.v[g], kPredicate); });
}

// Bit L set for each lane L whose mask is set.
template <int kVecs>
inline int MoveMask(const Lanes<kVecs>& mask) {
  int bits = 0;
#pragma GCC unroll 2
  for (int g = 0; g < kVecs; ++g) {
    bits |= _mm256_movemask_pd(mask.v[g]) << (4 * g);
  }
  return bits;
}

// couple_panel with kVecs vectors per cell of the augmented matrix [Q | e]
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
template <int kVecs>
int CoupleLanesAvx2(const double* pairs, int64_t stride, int k, double* work,
                    double* out) {
  using V = Lanes<kVecs>;
  constexpr int kLanes = 4 * kVecs;
  constexpr int kBlock = 4;
  const int64_t ld = k + 1;
  const auto cell = [work, ld](int64_t i, int64_t j) {
    return work + (i * ld + j) * kLanes;
  };
  double* sol = cell(k, 0);
  const V zero = Set1<kVecs>(0.0);
  const V one = Set1<kVecs>(1.0);
  const V sign = Set1<kVecs>(-0.0);

  // Q from the pair probabilities; each diagonal cell sums in ascending u.
  for (int s = 0; s < k; ++s) {
    Store(cell(s, s), zero);
    Store(cell(s, k), one);
  }
  const double* p = pairs;
  for (int s = 0; s < k; ++s) {
    V diag = Load<kVecs>(cell(s, s));
    for (int t = s + 1; t < k; ++t, p += stride) {
      const V r_st = LoadU<kVecs>(p);
      const V r_ts = Sub(one, r_st);
      const V v = Xor(Mul(r_st, r_ts), sign);
      Store(cell(s, t), v);
      Store(cell(t, s), v);
      Store(cell(t, t), Add(Load<kVecs>(cell(t, t)), Mul(r_st, r_st)));
      diag = Add(diag, Mul(r_ts, r_ts));
    }
    Store(cell(s, s), diag);
  }
  V nan = zero;
  for (int s = 0; s < k; ++s) {
    const V d = Load<kVecs>(cell(s, s));
    nan = Or(nan, Cmp<_CMP_UNORD_Q>(d, d));
  }
  int redo = MoveMask(nan);

  for (int col0 = 0; col0 < k; col0 += kBlock) {
    const int end = std::min(col0 + kBlock, k);
    for (int c = col0; c < end; ++c) {
      V best = Abs(Load<kVecs>(cell(c, c)));
      V pivot = Set1<kVecs>(c);
      for (int row = c + 1; row < k; ++row) {
        const V v = Abs(Load<kVecs>(cell(row, c)));
        const V gt = Cmp<_CMP_GT_OQ>(v, best);
        best = Blend(best, v, gt);
        pivot = Blend(pivot, Set1<kVecs>(row), gt);
      }
      redo |= MoveMask(Cmp<_CMP_LT_OQ>(best, Set1<kVecs>(1e-12)));
      alignas(32) double pivot_row[kLanes];
      Store(pivot_row, pivot);
      for (int lane = 0; lane < kLanes; ++lane) {
        const int pr = static_cast<int>(pivot_row[lane]);
        if (pr == c) continue;
        for (int j = col0; j <= k; ++j) {
          std::swap(cell(c, j)[lane], cell(pr, j)[lane]);
        }
      }
      const V inv_pivot = Div(one, Load<kVecs>(cell(c, c)));
      for (int row = c + 1; row < k; ++row) {
        const V factor = Mul(Load<kVecs>(cell(row, c)), inv_pivot);
        Store(cell(row, c), factor);
        const V skip = Cmp<_CMP_EQ_OQ>(factor, zero);
        for (int j = c + 1; j < end; ++j) {
          const V old = Load<kVecs>(cell(row, j));
          const V upd = Sub(old, Mul(factor, Load<kVecs>(cell(c, j))));
          Store(cell(row, j), Blend(upd, old, skip));
        }
      }
    }

    // The trailing update: row `row` takes steps 0..steps-1 of the block.
    const int64_t width = k + 1 - end;  // cells right of the block
    const double* piv[kBlock] = {};     // the block's pivot rows
    for (int s = 0; s < end - col0; ++s) piv[s] = cell(col0 + s, end);
    for (int row = col0 + 1; row < k; ++row) {
      const int steps = std::min(end, row) - col0;
      V f[kBlock];
      V skip[kBlock];
      int any_skip = 0;
      for (int s = 0; s < steps; ++s) {
        f[s] = Load<kVecs>(cell(row, col0 + s));
        skip[s] = Cmp<_CMP_EQ_OQ>(f[s], zero);
        any_skip |= MoveMask(skip[s]);
      }
      double* dst = cell(row, end);
      if (steps == kBlock && any_skip == 0) {
        // Spelled out: -O2 keeps a loop over f[] and piv[] in memory.
        const V f0 = f[0], f1 = f[1], f2 = f[2], f3 = f[3];
        const double* p0 = piv[0];
        const double* p1 = piv[1];
        const double* p2 = piv[2];
        const double* p3 = piv[3];
        for (int64_t j = 0; j < width * kLanes; j += kLanes) {
          V v = Load<kVecs>(dst + j);
          v = Sub(v, Mul(f0, Load<kVecs>(p0 + j)));
          v = Sub(v, Mul(f1, Load<kVecs>(p1 + j)));
          v = Sub(v, Mul(f2, Load<kVecs>(p2 + j)));
          v = Sub(v, Mul(f3, Load<kVecs>(p3 + j)));
          Store(dst + j, v);
        }
        continue;
      }
      for (int64_t j = 0; j < width * kLanes; j += kLanes) {
        V v = Load<kVecs>(dst + j);
        for (int s = 0; s < steps; ++s) {
          const V upd = Sub(v, Mul(f[s], Load<kVecs>(piv[s] + j)));
          v = Blend(upd, v, skip[s]);
        }
        Store(dst + j, v);
      }
    }
  }

  // Back substitution: the canonical block-8 tree, one row per lane.
  for (int col = k - 1; col >= 0; --col) {
    const int64_t n = k - col - 1;
    const double* a = cell(col, col + 1);
    const double* b = sol + (col + 1) * kLanes;
    const auto prod = [a, b](int64_t i) {
      return Mul(Load<kVecs>(a + i * kLanes), Load<kVecs>(b + i * kLanes));
    };
    V acc = zero;
    int64_t q = 0;
    for (; q + 8 <= n; q += 8) {
      const V s0 = Add(prod(q), prod(q + 4));
      const V s1 = Add(prod(q + 1), prod(q + 5));
      const V s2 = Add(prod(q + 2), prod(q + 6));
      const V s3 = Add(prod(q + 3), prod(q + 7));
      acc = Add(acc, Add(Add(s0, s2), Add(s1, s3)));
    }
    for (; q < n; ++q) acc = Add(acc, prod(q));
    Store(sol + col * kLanes,
          Div(Sub(Load<kVecs>(cell(col, k)), acc), Load<kVecs>(cell(col, col))));
  }

  // Clamp and normalise. max(0, v) is std::max(v, 0.0): v unless 0 > v.
  V sum = zero;
  for (int s = 0; s < k; ++s) {
    const V v = Max(zero, Load<kVecs>(sol + s * kLanes));
    Store(sol + s * kLanes, v);
    sum = Add(sum, v);
  }
  redo |= MoveMask(Cmp<_CMP_NGT_UQ>(sum, zero));
  for (int s = 0; s < k; ++s) {
    alignas(32) double v[kLanes];
    Store(v, Div(Load<kVecs>(sol + s * kLanes), sum));
    for (int lane = 0; lane < kLanes; ++lane) out[lane * k + s] = v[lane];
  }
  return redo;
}

int CouplePanelAvx2(const double* pairs, int64_t stride, int rows, int k,
                    double* work, double* out) {
  return rows == kWidePanelRows
             ? CoupleLanesAvx2<2>(pairs, stride, k, work, out)
             : CoupleLanesAvx2<1>(pairs, stride, k, work, out);
}

// Vector twin of simd::PlattFromArg on f = (bias + v) * A + B, one pair's
// kVecs vectors of lanes per step. -|f| is f with its sign bit set, as
// -std::fabs(f); f >= 0 is ordered, so a NaN f takes 1.0 / (1 + NaN) as in
// the scalar form.
template <int kVecs>
void PlattLanesAvx2(double* pairs, int64_t stride, const double* table,
                    int64_t num_pairs) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  for (int64_t pi = 0; pi < num_pairs; ++pi) {
    const double* t = table + pi * 3;
    const __m256d bias = _mm256_set1_pd(t[0]);
    const __m256d a = _mm256_set1_pd(t[1]);
    const __m256d b = _mm256_set1_pd(t[2]);
#pragma GCC unroll 2
    for (int g = 0; g < kVecs; ++g) {
      double* v = pairs + pi * stride + 4 * g;
      const __m256d f = _mm256_add_pd(
          _mm256_mul_pd(_mm256_add_pd(bias, _mm256_loadu_pd(v)), a), b);
      const __m256d e = ExpVec(_mm256_or_pd(f, sign));
      const __m256d num =
          _mm256_blendv_pd(one, e, _mm256_cmp_pd(f, zero, _CMP_GE_OQ));
      _mm256_storeu_pd(v, _mm256_div_pd(num, _mm256_add_pd(one, e)));
    }
  }
}

void PlattPanelAvx2(double* pairs, int64_t stride, int rows,
                    const double* table, int64_t num_pairs) {
  if (rows == kWidePanelRows) {
    return PlattLanesAvx2<2>(pairs, stride, table, num_pairs);
  }
  PlattLanesAvx2<1>(pairs, stride, table, num_pairs);
}

// Four rows of four doubles become four columns: r_i[j] moves to r_j[i].
inline void Transpose4x4(__m256d& r0, __m256d& r1, __m256d& r2, __m256d& r3) {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // r0[0] r1[0] r0[2] r1[2]
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // r0[1] r1[1] r0[3] r1[3]
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);  // r2[0] r3[0] r2[2] r3[2]
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);  // r2[1] r3[1] r2[3] r3[3]
  r0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  r1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  r2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  r3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

void TransposeAvx2(const double* src, int64_t src_stride, int64_t rows,
                   int64_t cols, double* dst, int64_t dst_stride) {
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* s = src + r * src_stride;
    int64_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      __m256d a0 = _mm256_loadu_pd(s + c);
      __m256d a1 = _mm256_loadu_pd(s + src_stride + c);
      __m256d a2 = _mm256_loadu_pd(s + 2 * src_stride + c);
      __m256d a3 = _mm256_loadu_pd(s + 3 * src_stride + c);
      Transpose4x4(a0, a1, a2, a3);
      double* d = dst + c * dst_stride + r;
      _mm256_storeu_pd(d, a0);
      _mm256_storeu_pd(d + dst_stride, a1);
      _mm256_storeu_pd(d + 2 * dst_stride, a2);
      _mm256_storeu_pd(d + 3 * dst_stride, a3);
    }
    for (; c < cols; ++c) {
      for (int64_t i = 0; i < 4; ++i) {
        dst[c * dst_stride + r + i] = s[i * src_stride + c];
      }
    }
  }
  for (; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      dst[c * dst_stride + r] = src[r * src_stride + c];
    }
  }
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
      CouplingUpdateAvx2,
      AxpyNegAvx2,
      MulNegAvx2,
      CouplePanelAvx2,
      PlattPanelAvx2,
      TransposeAvx2,
  };
  return &table;
}

}  // namespace gmpsvm::simd

#else  // !x86-64

namespace gmpsvm::simd {
const SimdOps* Avx2OpsTable() { return nullptr; }
}  // namespace gmpsvm::simd

#endif
