// Deterministic elementwise math for the SIMD kernel tier.
//
// The vectorized hot paths (docs/performance.md, "SIMD tier") must produce
// results byte-identical to the scalar fallback, which rules out libm:
// std::exp has no vector-lane twin with the same rounding (and differs
// between libm variants). Instead the exp that the Gaussian kernel transform
// and Platt's sigmoid need is implemented here as a fixed sequence of
// IEEE-754 double operations (+, -, *, /, floor, abs, exponent-bit scaling).
// Elementwise IEEE ops are exact per lane, so a vector tier that applies the
// *same op sequence* to each lane reproduces these scalar results bit for
// bit automatically —
// the vector implementation in simd_avx2.cc mirrors each function below
// operation by operation, and tests/simd/simd_test.cc holds it to memcmp
// equality.
//
// Accuracy: the exp core is the Cephes rational approximation (~1-2 ulp over
// the full range); Platt's sigmoid is derived from it (a few ulp; simd_test
// bounds it against a long double reference). That is far inside every
// tolerance the calibration and solver tests use. A NaN
// input (a NaN feature reaching a kernel transform) yields NaN in every tier,
// so downstream checks reject it the same way whichever tier ran.
//
// These functions are also the *scalar* kernel-transform implementation:
// KernelFunction::FromDot routes through GaussianFromDot at the bottom, so
// single-value kernel evaluations and batched vector transforms share one
// arithmetic definition.
//
// NOTE: translation units using vector twins of these functions must be
// compiled with -ffp-contract=off (see src/CMakeLists.txt); a contracted
// fma in just one tier would break cross-tier identity.

#ifndef GMPSVM_SIMD_SIMD_MATH_H_
#define GMPSVM_SIMD_SIMD_MATH_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace gmpsvm::simd {

// Cephes exp constants. The argument is reduced as x = n*ln2 + r via the
// two-part Cody-Waite ln2 (kLn2Hi + kLn2Lo) so r is exact to ~1e-22, then
// e^r is evaluated as 1 + 2*P(r^2)*r / (Q(r^2) - P(r^2)*r) and scaled by
// 2^n through exponent-bit construction.
inline constexpr double kExpHi = 709.78271289338397;   // overflow threshold
inline constexpr double kExpLo = -708.39641853226408;  // underflow (to 0)
inline constexpr double kLog2E = 1.4426950408889634073599;
inline constexpr double kLn2Hi = 6.93145751953125e-1;
inline constexpr double kLn2Lo = 1.42860682030941723212e-6;
inline constexpr double kExpP0 = 1.26177193074810590878e-4;
inline constexpr double kExpP1 = 3.02994407707441961300e-2;
inline constexpr double kExpP2 = 9.99999999999999999910e-1;
inline constexpr double kExpQ0 = 3.00198505138664455042e-6;
inline constexpr double kExpQ1 = 2.52448340349684104192e-3;
inline constexpr double kExpQ2 = 2.27265548208155028766e-1;
inline constexpr double kExpQ3 = 2.00000000000000000005e0;

// 2^e for an integer exponent known to fit a normal double (|e| <= 1023).
inline double Pow2(int64_t e) {
  return std::bit_cast<double>(static_cast<uint64_t>(e + 1023) << 52);
}

// Deterministic e^x. Clamps to [kExpLo, kExpHi]: inputs above return +inf,
// inputs below return exactly 0 (gradual denormals in (-745, -708.4) are
// flushed — a deliberate, documented deviation from libm that every tier
// shares). The unclamped core and the final blend mirror the vector
// implementations step for step. NaN in gives NaN out in every tier; the
// scalar tier returns early because converting NaN to an integer below is
// undefined behaviour in C++.
inline double Exp(double x) {
  if (std::isnan(x)) return x;
  const double xc = x < kExpLo ? kExpLo : (x > kExpHi ? kExpHi : x);

  // n = round-to-nearest-ish integer via floor(x*log2e + 0.5), matching the
  // vector tiers' floor instruction (round toward -inf after the +0.5).
  const double nf = std::floor(xc * kLog2E + 0.5);
  // r = xc - n*ln2, Cody-Waite.
  double r = xc - nf * kLn2Hi;
  r = r - nf * kLn2Lo;

  const double r2 = r * r;
  const double p = ((kExpP0 * r2 + kExpP1) * r2 + kExpP2) * r;
  const double q = ((kExpQ0 * r2 + kExpQ1) * r2 + kExpQ2) * r2 + kExpQ3;
  const double core = 1.0 + 2.0 * (p / (q - p));

  // 2^n in two steps so both factors stay normal for n in [-1075, 1025].
  const int64_t n = static_cast<int64_t>(nf);
  const int64_t n1 = n >> 1;  // arithmetic shift: floor(n/2)
  const double scaled = (core * Pow2(n1)) * Pow2(n - n1);

  if (x > kExpHi) return std::numeric_limits<double>::infinity();
  if (x < kExpLo) return 0.0;
  return scaled;
}

// Platt's sigmoid 1 / (1 + e^f) at f = A*v + B (Equation 12), in LibSVM's
// stable two-branch form with one deterministic exp: e = Exp(-|f|), then
// e / (1 + e) for f >= 0 and 1 / (1 + e) otherwise, so e never overflows.
// The vector panel (SimdOps::platt_panel) replays it per lane; a NaN f gives
// NaN.
inline double PlattFromArg(double f) {
  const double e = Exp(-std::fabs(f));
  return (f >= 0 ? e : 1.0) / (1.0 + e);
}

// Canonical dot -> kernel-value transform. All call sites — scalar
// single-value evaluation and batched vector transforms — must use exactly
// this operation order.
inline double GaussianFromDot(double dot, double norm_i, double norm_j,
                              double gamma) {
  const double arg = (norm_i + norm_j) - (2.0 * dot);
  return Exp((-gamma) * arg);
}

}  // namespace gmpsvm::simd

#endif  // GMPSVM_SIMD_SIMD_MATH_H_
