#include "simd/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "../simd_tier_guard.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "kernel/kernel_function.h"
#include "prob/pairwise_coupling.h"
#include "prob/platt.h"
#include "simd/simd_math.h"
#include "sparse/csr_matrix.h"
#include "sparse/ops.h"

namespace gmpsvm {
namespace {

using simd::SimdOps;
using simd::SimdTier;
using testing::ScopedSimdTier;
using testing::SupportedTiers;

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Randomized lengths deliberately cover 0, 1, sub-lane sizes, odd tails and
// multi-block spans so every tier exercises its main loop and tail handling.
const int64_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63};

TEST(SimdDispatchTest, TierFromStringRoundTrips) {
  for (const char* name : {"auto", "scalar", "avx2"}) {
    Result<SimdTier> tier = simd::TierFromString(name);
    ASSERT_TRUE(tier.ok()) << name;
    EXPECT_STREQ(simd::TierName(tier.value()), name);
  }
  EXPECT_FALSE(simd::TierFromString("sse2").ok());
  EXPECT_FALSE(simd::TierFromString("").ok());
  // A tier this library does not have is an unknown name.
  Result<SimdTier> unknown = simd::TierFromString("neon");
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
  EXPECT_EQ(unknown.status().message(),
            "unknown simd tier 'neon' (expected auto|scalar|avx2)");
}

TEST(SimdDispatchTest, ScalarAlwaysSupportedAndDetectedTierRuns) {
  EXPECT_TRUE(simd::TierSupported(SimdTier::kScalar));
  EXPECT_TRUE(simd::TierSupported(SimdTier::kAuto));
  const SimdTier best = simd::DetectBestTier();
  EXPECT_NE(best, SimdTier::kAuto);
  EXPECT_TRUE(simd::TierSupported(best));
  const SimdOps& ops = simd::OpsFor(best);
  EXPECT_GE(ops.lane_width, 1);
  const double a[3] = {1.0, 2.0, 3.0};
  EXPECT_EQ(ops.dot(a, a, 3), 14.0);
}

TEST(SimdDispatchTest, SetActiveTierValidatesAndOverrides) {
  ASSERT_TRUE(simd::SetActiveTier(SimdTier::kScalar).ok());
  EXPECT_EQ(simd::ActiveTier(), SimdTier::kScalar);
  EXPECT_STREQ(simd::OpsFor(SimdTier::kAuto).name, "scalar");
  ASSERT_TRUE(simd::SetActiveTier(SimdTier::kAuto).ok());
  EXPECT_EQ(simd::ActiveTier(), simd::DetectBestTier());
  // A tier the CPU cannot run is rejected and the active tier stays: AVX2
  // on a CPU without it, and on every CPU a value no tier has.
  if (!simd::TierSupported(SimdTier::kAvx2)) {
    EXPECT_FALSE(simd::SetActiveTier(SimdTier::kAvx2).ok());
    EXPECT_EQ(simd::ActiveTier(), simd::DetectBestTier());
  }
  const Status unknown = simd::SetActiveTier(static_cast<SimdTier>(7));
  EXPECT_TRUE(unknown.IsInvalidArgument()) << unknown.ToString();
  EXPECT_EQ(simd::ActiveTier(), simd::DetectBestTier());
}

TEST(SimdDispatchTest, DescribeEnvironmentNamesActiveTier) {
  const std::string env = simd::DescribeEnvironment();
  EXPECT_NE(env.find("isa="), std::string::npos);
  EXPECT_NE(env.find("active="), std::string::npos);
  EXPECT_NE(env.find(simd::OpsFor(SimdTier::kAuto).name), std::string::npos);
}

TEST(SimdMathTest, ExpMatchesStdExpClosely) {
  Rng rng(11);
  double max_rel = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Uniform(-700.0, 700.0);
    const double got = simd::Exp(x);
    const double want = std::exp(x);
    if (want > 0.0 && std::isfinite(want)) {
      max_rel = std::max(max_rel, std::abs(got - want) / want);
    }
  }
  EXPECT_LT(max_rel, 1e-15);
  EXPECT_EQ(simd::Exp(0.0), 1.0);
  EXPECT_EQ(simd::Exp(800.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(simd::Exp(-800.0), 0.0);
  EXPECT_EQ(simd::Tanh(0.0), 0.0);
  EXPECT_EQ(simd::Tanh(100.0), 1.0);
  EXPECT_EQ(simd::Tanh(-100.0), -1.0);
  EXPECT_EQ(simd::PowInt(2.0, 10), 1024.0);
  EXPECT_EQ(simd::PowInt(5.0, 0), 1.0);
}

TEST(SimdTierIdentityTest, DotAndGatherDotBitwiseAcrossTiers) {
  const std::vector<SimdTier> tiers = SupportedTiers();
  const SimdOps& ref = simd::OpsFor(SimdTier::kScalar);
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    for (int64_t n : kLengths) {
      std::vector<double> a(static_cast<size_t>(n)), b(a), dense(512);
      std::vector<int32_t> idx(static_cast<size_t>(n));
      for (auto& v : a) v = rng.Normal();
      for (auto& v : b) v = rng.Normal();
      for (auto& v : dense) v = rng.Normal();
      int32_t last = 0;
      for (auto& v : idx) {  // strictly increasing CSR-style indices
        last += 1 + static_cast<int32_t>(rng.Uniform(0.0, 3.0));
        v = last % 512;
      }
      std::sort(idx.begin(), idx.end());
      const double want_dot = ref.dot(a.data(), b.data(), n);
      const double want_gather = ref.gather_dot(a.data(), idx.data(), n,
                                                dense.data());
      for (SimdTier tier : tiers) {
        const SimdOps& ops = simd::OpsFor(tier);
        EXPECT_EQ(ops.dot(a.data(), b.data(), n), want_dot)
            << ops.name << " n=" << n;
        EXPECT_EQ(ops.gather_dot(a.data(), idx.data(), n, dense.data()),
                  want_gather)
            << ops.name << " n=" << n;
      }
      // gather_dot with identity indices IS dot (same reduction tree).
      std::vector<int32_t> identity(static_cast<size_t>(n));
      for (int64_t j = 0; j < n; ++j) identity[static_cast<size_t>(j)] =
          static_cast<int32_t>(j);
      for (SimdTier tier : tiers) {
        const SimdOps& ops = simd::OpsFor(tier);
        EXPECT_EQ(ops.gather_dot(a.data(), identity.data(), n, b.data()),
                  want_dot)
            << ops.name << " n=" << n;
      }
    }
  }
}

TEST(SimdTierIdentityTest, GatherDotPanelIsPerRowGatherDotOnEveryTier) {
  // Each lane of a register-blocked panel must reproduce the single-row
  // gather_dot of its row bit for bit: main loop, tail, and a zero row.
  const std::vector<SimdTier> tiers = SupportedTiers();
  const SimdOps& ref = simd::OpsFor(SimdTier::kScalar);
  constexpr int64_t kCols = 512;
  constexpr int kRows = simd::kPanelRows;
  // 32-byte-aligned interleaved panel, plus the same rows stored plainly.
  std::vector<double> storage(kCols * kRows + 4, 0.0);
  const size_t misalign =
      reinterpret_cast<uintptr_t>(storage.data()) % 32 / sizeof(double);
  double* panel = storage.data() + (4 - misalign) % 4;
  std::vector<std::vector<double>> rows(kRows, std::vector<double>(kCols));
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    for (int r = 0; r < kRows; ++r) {
      for (int64_t c = 0; c < kCols; ++c) {
        // Row kRows - 1 stays zero: the unused rows of a partial panel.
        const double v = r == kRows - 1 ? 0.0 : rng.Normal();
        rows[r][static_cast<size_t>(c)] = v;
        panel[c * kRows + r] = v;
      }
    }
    for (int64_t n : kLengths) {
      std::vector<double> vals(static_cast<size_t>(n));
      std::vector<int32_t> idx(static_cast<size_t>(n));
      for (auto& v : vals) v = rng.Normal();
      int32_t last = 0;
      for (auto& v : idx) {
        last += 1 + static_cast<int32_t>(rng.Uniform(0.0, 5.0));
        v = last % kCols;
      }
      std::sort(idx.begin(), idx.end());
      for (SimdTier tier : tiers) {
        const SimdOps& ops = simd::OpsFor(tier);
        double got[kRows];
        ops.gather_dot_panel(vals.data(), idx.data(), n, panel, got);
        for (int r = 0; r < kRows; ++r) {
          const double want =
              ref.gather_dot(vals.data(), idx.data(), n, rows[r].data());
          EXPECT_EQ(std::memcmp(&got[r], &want, sizeof(double)), 0)
              << ops.name << " n=" << n << " row=" << r;
        }
      }
    }
  }
}

TEST(SimdTierIdentityTest, NanPropagatesThroughTransformsOnEveryTier) {
  // A NaN feature reaches the kernel transforms as a NaN dot product or
  // norm. Every tier must return NaN for it, so coupling rejects the row
  // whichever tier ran; the AVX2 exp clamp once turned NaN into a finite
  // value.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(simd::Exp(nan)));
  EXPECT_TRUE(std::isnan(simd::Tanh(nan)));
  for (SimdTier tier : SupportedTiers()) {
    const SimdOps& ops = simd::OpsFor(tier);
    // Nine values: a full vector pass plus a scalar tail on every tier.
    std::vector<double> norms(9, 1.0);
    std::vector<int32_t> targets(9);
    for (int32_t j = 0; j < 9; ++j) targets[static_cast<size_t>(j)] = j;
    for (size_t at : {size_t{0}, size_t{3}, size_t{8}}) {
      std::vector<double> g(9, 0.5), s(9, 0.5);
      g[at] = nan;
      s[at] = nan;
      ops.gaussian_transform(g.data(), norms.data(), targets.data(), 9, 1.0,
                             0.5);
      ops.sigmoid_transform(s.data(), 9, 0.5, 0.1);
      for (size_t j = 0; j < 9; ++j) {
        EXPECT_EQ(std::isnan(g[j]), j == at) << ops.name << " gaussian " << j;
        EXPECT_EQ(std::isnan(s[j]), j == at) << ops.name << " sigmoid " << j;
      }
      // A NaN norm (the row's own or a target's) poisons the same way.
      std::vector<double> bad_norms = norms;
      bad_norms[at] = nan;
      std::vector<double> h(9, 0.5);
      ops.gaussian_transform(h.data(), bad_norms.data(), targets.data(), 9,
                             1.0, 0.5);
      for (size_t j = 0; j < 9; ++j) {
        EXPECT_EQ(std::isnan(h[j]), j == at) << ops.name << " norm " << j;
      }
      std::vector<double> all(9, 0.5);
      ops.gaussian_transform(all.data(), norms.data(), targets.data(), 9, nan,
                             0.5);
      for (double v : all) EXPECT_TRUE(std::isnan(v)) << ops.name;
    }
  }
}

TEST(SimdTierIdentityTest, TransformsBitwiseAcrossTiersAndMatchFromDot) {
  const std::vector<SimdTier> tiers = SupportedTiers();
  Rng rng(7);
  for (int64_t n : kLengths) {
    std::vector<double> dots(static_cast<size_t>(n)), norms(64);
    std::vector<int32_t> targets(static_cast<size_t>(n));
    for (auto& v : dots) v = rng.Normal();
    for (auto& v : norms) v = rng.Uniform(0.0, 5.0);
    for (auto& v : targets) {
      v = static_cast<int32_t>(rng.Uniform(0.0, 64.0)) % 64;
    }
    const double norm_row = 1.7, gamma = 0.35, coef0 = 0.25;
    const int degree = 3;

    // Scalar references straight from FromDot (the arithmetic definition).
    KernelParams gp;
    gp.type = KernelType::kGaussian;
    gp.gamma = gamma;
    KernelParams pp;
    pp.type = KernelType::kPolynomial;
    pp.gamma = gamma;
    pp.coef0 = coef0;
    pp.degree = degree;
    KernelParams sp;
    sp.type = KernelType::kSigmoid;
    sp.gamma = gamma;
    sp.coef0 = coef0;
    std::vector<double> want_g(static_cast<size_t>(n)),
        want_p(static_cast<size_t>(n)), want_s(static_cast<size_t>(n));
    for (int64_t j = 0; j < n; ++j) {
      const size_t sj = static_cast<size_t>(j);
      want_g[sj] = KernelFunction(gp).FromDot(
          dots[sj], norm_row, norms[static_cast<size_t>(targets[sj])]);
      want_p[sj] = KernelFunction(pp).FromDot(dots[sj], 0, 0);
      want_s[sj] = KernelFunction(sp).FromDot(dots[sj], 0, 0);
    }

    for (SimdTier tier : tiers) {
      const SimdOps& ops = simd::OpsFor(tier);
      std::vector<double> g = dots, p = dots, s = dots;
      ops.gaussian_transform(g.data(), norms.data(), targets.data(), n,
                             norm_row, gamma);
      ops.poly_transform(p.data(), n, gamma, coef0, degree);
      ops.sigmoid_transform(s.data(), n, gamma, coef0);
      EXPECT_TRUE(SameBits(g, want_g)) << ops.name << " gaussian n=" << n;
      EXPECT_TRUE(SameBits(p, want_p)) << ops.name << " poly n=" << n;
      EXPECT_TRUE(SameBits(s, want_s)) << ops.name << " sigmoid n=" << n;
    }
  }
}

TEST(SimdTierIdentityTest, CouplingUpdateAndAxpyBitwiseAcrossTiers) {
  const std::vector<SimdTier> tiers = SupportedTiers();
  const SimdOps& ref = simd::OpsFor(SimdTier::kScalar);
  Rng rng(19);
  for (int64_t n : kLengths) {
    std::vector<double> qp0(static_cast<size_t>(n)), p0(qp0), qrow(qp0),
        y0(qp0), x(qp0);
    for (auto& v : qp0) v = rng.Normal();
    for (auto& v : p0) v = rng.Uniform(0.0, 1.0);
    for (auto& v : qrow) v = rng.Normal();
    for (auto& v : y0) v = rng.Normal();
    for (auto& v : x) v = rng.Normal();
    const double diff = 0.037, factor = -1.25;

    std::vector<double> qp_ref = qp0, p_ref = p0, y_ref = y0,
        m_ref(static_cast<size_t>(n), -3.0);
    ref.coupling_update(qp_ref.data(), p_ref.data(), qrow.data(), n, diff);
    ref.axpy_neg(y_ref.data(), x.data(), n, factor);
    ref.mul_neg(m_ref.data(), qrow.data(), x.data(), n);
    for (SimdTier tier : tiers) {
      const SimdOps& ops = simd::OpsFor(tier);
      std::vector<double> qp = qp0, p = p0, y = y0,
          m(static_cast<size_t>(n), -3.0);
      ops.coupling_update(qp.data(), p.data(), qrow.data(), n, diff);
      ops.axpy_neg(y.data(), x.data(), n, factor);
      ops.mul_neg(m.data(), qrow.data(), x.data(), n);
      EXPECT_TRUE(SameBits(qp, qp_ref)) << ops.name << " n=" << n;
      EXPECT_TRUE(SameBits(p, p_ref)) << ops.name << " n=" << n;
      EXPECT_TRUE(SameBits(y, y_ref)) << ops.name << " n=" << n;
      EXPECT_TRUE(SameBits(m, m_ref)) << ops.name << " n=" << n;
    }
    if (n > 0) {
      EXPECT_EQ(m_ref[0], -(qrow[0] * x[0]));
    }
  }
}

// Randomized CSR fixture with empty rows and odd row lengths: row r is empty
// whenever r % 5 == 0.
CsrMatrix RandomCsr(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  CsrBuilder builder(cols);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<int32_t> idx;
    std::vector<double> val;
    if (r % 5 != 0) {
      for (int32_t c = 0; c < cols; ++c) {
        if (rng.Bernoulli(0.23)) {
          idx.push_back(c);
          val.push_back(rng.Normal());
        }
      }
    }
    builder.AddRow(idx, val);
  }
  return ValueOrDie(builder.Finish());
}

TEST(SimdTierIdentityTest, SparseOpsBitwiseAcrossTiersEndToEnd) {
  // The instrumented paths' sparse entry points, scalar vs each vector
  // tier, on fixtures with empty rows and ragged tails. Outputs AND OpStats
  // must agree bitwise.
  CsrMatrix a = RandomCsr(40, 97, 5);
  CsrMatrix b = RandomCsr(33, 97, 6);
  std::vector<int32_t> batch, targets;
  for (int32_t i = 0; i < 40; i += 3) batch.push_back(i);
  for (int32_t i = 0; i < 33; ++i) targets.push_back(i);

  const SimdOps& ref = simd::OpsFor(SimdTier::kScalar);
  std::vector<double> want_batch(batch.size() * targets.size());
  std::vector<double> want_scatter(targets.size());
  const OpStats sb = BatchRowDots2(a, batch, b, targets, want_batch.data(),
                                   nullptr, &ref);
  const OpStats ss = ScatterRowDots(a, 7, b, targets, want_scatter.data(),
                                    &ref);

  for (SimdTier tier : SupportedTiers()) {
    const SimdOps& ops = simd::OpsFor(tier);
    std::vector<double> got_batch(want_batch.size(), -1.0);
    std::vector<double> got_scatter(want_scatter.size(), -1.0);
    const OpStats gb = BatchRowDots2(a, batch, b, targets, got_batch.data(),
                                     nullptr, &ops);
    const OpStats gs = ScatterRowDots(a, 7, b, targets, got_scatter.data(),
                                      &ops);
    EXPECT_TRUE(SameBits(got_batch, want_batch)) << ops.name;
    EXPECT_TRUE(SameBits(got_scatter, want_scatter)) << ops.name;
    EXPECT_EQ(gb.flops, sb.flops);
    EXPECT_EQ(gs.flops, ss.flops);
    EXPECT_EQ(gs.bytes_read, ss.bytes_read);
    EXPECT_EQ(gs.bytes_written, ss.bytes_written);
  }
}

TEST(SimdTierIdentityTest, CouplingSolvesBitwiseAcrossTiers) {
  Rng rng(23);
  for (int k : {2, 3, 5, 9}) {
    std::vector<double> r(static_cast<size_t>(k) * k, 0.0);
    for (int s = 0; s < k; ++s) {
      for (int t = s + 1; t < k; ++t) {
        const double p = rng.Uniform(0.02, 0.98);
        r[static_cast<size_t>(s) * k + t] = p;
        r[static_cast<size_t>(t) * k + s] = 1.0 - p;
      }
    }
    for (CouplingMethod method :
         {CouplingMethod::kGaussianElimination, CouplingMethod::kIterative}) {
      CouplingOptions opts;
      opts.method = method;
      Result<std::vector<double>> want = [&] {
        const ScopedSimdTier scalar(SimdTier::kScalar);
        return CoupleProbabilities(r, k, opts);
      }();
      ASSERT_TRUE(want.ok());
      for (SimdTier tier : SupportedTiers()) {
        const ScopedSimdTier scope(tier);
        Result<std::vector<double>> got = CoupleProbabilities(r, k, opts);
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(SameBits(got.value(), want.value()))
            << simd::TierName(tier) << " k=" << k;
      }
    }
  }
}

// One coupling panel: each lane's k x k r (r_st = P, r_ts = 1 - P) and the
// same probabilities pair-major in pair order, as CouplePanel takes them.
struct CouplingPanel {
  int k = 0;
  std::vector<std::vector<double>> r;
  std::vector<double> pairs;

  explicit CouplingPanel(int classes)
      : k(classes),
        r(simd::kPanelRows,
          std::vector<double>(static_cast<size_t>(classes) * classes, 0.0)),
        pairs(static_cast<size_t>(classes) * (classes - 1) / 2 *
              simd::kPanelRows) {}

  void Set(int lane, int s, int t, double p) {
    const int pi = s * k - s * (s + 3) / 2 + t - 1;
    pairs[static_cast<size_t>(pi) * simd::kPanelRows + lane] = p;
    r[lane][static_cast<size_t>(s) * k + t] = p;
    r[lane][static_cast<size_t>(t) * k + s] = 1.0 - p;
  }
  template <typename Fn>
  void Fill(int lane, Fn p_of) {
    for (int s = 0; s < k; ++s) {
      for (int t = s + 1; t < k; ++t) Set(lane, s, t, p_of(s, t));
    }
  }
};

// Coupling's Q_st for lane r (Equation 15), to check what a fixture makes
// the elimination do.
double QOf(const std::vector<double>& r, int k, int s, int t) {
  const auto at = [&](int i, int j) {
    return r[static_cast<size_t>(i) * k + j];
  };
  if (s != t) return -(at(s, t) * at(t, s));
  double q = 0.0;
  for (int u = 0; u < k; ++u) {
    q += at(u, s) * at(u, s);
  }
  return q;
}

TEST(SimdTierIdentityTest, CouplePanelIsPerRowCouplingOnEveryTier) {
  // Every lane of a panel solve must be bitwise the per-row Gaussian
  // elimination of its r, errors included, on every tier: lanes that pivot
  // differently, a lane whose Q is singular until the ridge retry (r = 0.5
  // everywhere), a NaN estimate, and saturated 0/1 estimates whose exact
  // zero factors take the factor == 0 skip.
  Rng rng(41);
  for (int k : {2, 3, 5, 9, 64}) {
    const auto uniform = [&](int, int) { return rng.Uniform(0.02, 0.98); };
    CouplingPanel mixed(k);
    mixed.Fill(0, uniform);
    // Class 0 wins every pair almost surely: Q_00 ~ (k-1)e-6 against
    // |Q_t0| ~ 1e-3, so this lane's first pivot moves (asserted below).
    mixed.Fill(1, [&](int s, int t) { return s == 0 ? 0.999 : uniform(s, t); });
    // Class 0's pairs saturate to 1, 0, 1, 0, ...: exact zeros in Q.
    mixed.Fill(2, [&](int s, int t) {
      return s == 0 ? static_cast<double>(t % 2) : uniform(s, t);
    });
    // Class 2 wins every pair: its tiny diagonal makes a pivot move inside
    // the first block of four columns, where a swap carries the rows'
    // pending factors of the block's earlier steps.
    const int winner = std::min(2, k - 1);
    mixed.Fill(3, [&](int s, int t) {
      return s == winner ? 0.999 : t == winner ? 0.001 : uniform(s, t);
    });
    double max_off = 0.0;
    for (int t = 1; t < k; ++t) {
      max_off = std::max(max_off, std::abs(QOf(mixed.r[1], k, t, 0)));
    }
    ASSERT_GT(max_off, QOf(mixed.r[1], k, 0, 0)) << "k=" << k;

    CouplingPanel failing(k);
    failing.Fill(0, uniform);
    failing.Fill(1, [](int, int) { return 0.5; });
    failing.Fill(2, uniform);
    failing.Fill(3, uniform);
    failing.Set(3, 0, k - 1, std::numeric_limits<double>::quiet_NaN());

    for (const CouplingPanel* panel : {&mixed, &failing}) {
      const CouplingOptions opts;
      std::vector<Result<std::vector<double>>> wants;
      {
        const ScopedSimdTier scalar(SimdTier::kScalar);
        for (int lane = 0; lane < simd::kPanelRows; ++lane) {
          wants.push_back(CoupleProbabilities(panel->r[lane], k, opts));
        }
      }
      for (SimdTier tier : SupportedTiers()) {
        const ScopedSimdTier scope(tier);
        std::vector<double> scratch;
        std::vector<double> out(static_cast<size_t>(simd::kPanelRows) * k);
        const std::array<Status, simd::kPanelRows> got =
            CouplePanel(panel->pairs, k, opts, &scratch, out.data());
        for (int lane = 0; lane < simd::kPanelRows; ++lane) {
          const std::string what =
              StrPrintf("%s k=%d lane=%d", simd::TierName(tier), k, lane);
          const Result<std::vector<double>>& want = wants[lane];
          ASSERT_EQ(got[lane].ok(), want.ok()) << what;
          if (!want.ok()) {
            EXPECT_EQ(got[lane].ToString(), want.status().ToString()) << what;
            continue;
          }
          const std::vector<double> row(out.begin() + lane * k,
                                        out.begin() + (lane + 1) * k);
          EXPECT_TRUE(SameBits(row, want.value())) << what;
        }
      }
    }

    // AVX2's entry hands back exactly the ridge and NaN lanes. At k = 2,
    // Q = [(1-p)^2, -p(1-p); -p(1-p), p^2] is singular for every p, so
    // every lane needs the ridge. The scalar entry hands back every lane:
    // its rows run the per-row solve.
    for (SimdTier tier : SupportedTiers()) {
      const int want_redo =
          tier == SimdTier::kAvx2 && k > 2 ? 0b1010 : 0b1111;
      const SimdOps& ops = simd::OpsFor(tier);
      std::vector<double> storage;
      std::vector<double> out(static_cast<size_t>(simd::kPanelRows) * k);
      const int redo = ops.couple_panel(
          failing.pairs.data(), k,
          simd::AlignedPanel(storage, simd::CouplePanelCells(k)), out.data());
      EXPECT_EQ(redo, want_redo) << ops.name << " k=" << k;
    }
  }
}

TEST(SimdTierIdentityTest, CouplePanelCountsOneCallPerRow) {
  // Solved lanes and lanes solved again per row each count once.
  const int k = 5;
  CouplingPanel panel(k);
  for (int lane = 0; lane < simd::kPanelRows; ++lane) {
    panel.Fill(lane, [lane](int s, int t) {
      return lane == 2 ? 0.5 : 0.1 + 0.1 * s + 0.02 * t;  // lane 2: ridge
    });
  }
  for (SimdTier tier : SupportedTiers()) {
    const ScopedSimdTier scope(tier);
    const CouplingOptions opts;
    std::vector<double> scratch;
    std::vector<double> out(static_cast<size_t>(simd::kPanelRows) * k);
    simd::ResetPathStats();
    for (const Status& status :
         CouplePanel(panel.pairs, k, opts, &scratch, out.data())) {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    const simd::PathStatsSnapshot stats =
        simd::PathStats(simd::SimdPath::kCoupling);
    EXPECT_EQ(stats.calls, simd::kPanelRows) << simd::TierName(tier);
    EXPECT_EQ(stats.elements, simd::kPanelRows * k * k) << simd::TierName(tier);
  }
  simd::ResetPathStats();
}

// Platt's sigmoid over full panels: every lane is bitwise PlattFromArg of
// its argument (and so SigmoidParams::Probability), on every tier, for 0, 1
// and an odd number of pairs. Even pairs pass their decision values through
// unchanged as f (bias -0, A 1, B -0), so their lanes hit the edges of Exp's
// clamp, signed zeros, huge and infinite arguments and NaN; odd pairs draw
// (bias, A, B) as fitted sigmoids look.
TEST(SimdTierIdentityTest, PlattPanelIsPlattFromArgOnEveryTier) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double edges[] = {
      0.0, -0.0,
      simd::kExpLo, std::nextafter(simd::kExpLo, 0.0),
      std::nextafter(simd::kExpLo, -kInf), -simd::kExpLo,
      std::nextafter(-simd::kExpLo, 0.0), std::nextafter(-simd::kExpLo, kInf),
      simd::kExpHi, std::nextafter(simd::kExpHi, 0.0),
      std::nextafter(simd::kExpHi, kInf), -simd::kExpHi,
      std::nextafter(-simd::kExpHi, 0.0), std::nextafter(-simd::kExpHi, -kInf),
      1e300, -1e300, kInf, -kInf,
      std::numeric_limits<double>::quiet_NaN(), 40.0, -40.0, 1e-300, -1e-300,
      37.5};
  const int64_t num_edges = static_cast<int64_t>(std::size(edges));
  for (const int64_t num_pairs : {int64_t{0}, int64_t{1}, int64_t{7},
                                  int64_t{13}}) {
    Rng rng(static_cast<uint64_t>(300 + num_pairs));
    std::vector<double> table;
    std::vector<double> dv;
    for (int64_t pi = 0; pi < num_pairs; ++pi) {
      if (pi % 2 == 0) {
        table.insert(table.end(), {-0.0, 1.0, -0.0});
      } else {
        table.insert(table.end(), {rng.Uniform(-2.0, 2.0),
                                   rng.Uniform(-6.0, -0.05),
                                   rng.Uniform(-1.5, 1.5)});
      }
      for (int lane = 0; lane < simd::kPanelRows; ++lane) {
        dv.push_back(pi % 2 == 0
                         ? edges[(pi / 2 * simd::kPanelRows + lane) % num_edges]
                         : rng.Uniform(-12.0, 12.0));
      }
    }
    // With 13 pairs the 7 pass-through pairs hold 28 lanes, every edge.
    std::vector<double> want(dv.size());
    for (int64_t pi = 0; pi < num_pairs; ++pi) {
      const double* t = table.data() + pi * 3;
      const SigmoidParams sigmoid{t[1], t[2]};
      for (int lane = 0; lane < simd::kPanelRows; ++lane) {
        const size_t at = static_cast<size_t>(pi * simd::kPanelRows + lane);
        want[at] = simd::PlattFromArg((t[0] + dv[at]) * t[1] + t[2]);
        const double probability = sigmoid.Probability(t[0] + dv[at]);
        EXPECT_EQ(std::memcmp(&want[at], &probability, sizeof(double)), 0)
            << "pair " << pi << " lane " << lane;
      }
    }
    for (SimdTier tier : SupportedTiers()) {
      std::vector<double> got = dv;
      simd::OpsFor(tier).platt_panel(got.data(), table.data(), num_pairs);
      for (size_t at = 0; at < got.size(); ++at) {
        SCOPED_TRACE(StrPrintf("%s pairs=%lld slot=%zu f=%a",
                               simd::TierName(tier),
                               static_cast<long long>(num_pairs), at, dv[at]));
        if (std::isnan(want[at])) {
          EXPECT_TRUE(std::isnan(got[at]));
        } else {
          EXPECT_EQ(std::memcmp(&got[at], &want[at], sizeof(double)), 0)
              << got[at] << " vs " << want[at];
        }
      }
    }
  }
  EXPECT_EQ(simd::PlattFromArg(0.0), 0.5);
  EXPECT_EQ(simd::PlattFromArg(kInf), 0.0);
  EXPECT_EQ(simd::PlattFromArg(-kInf), 1.0);
  EXPECT_TRUE(std::isnan(
      simd::PlattFromArg(std::numeric_limits<double>::quiet_NaN())));
}

// PlattFromArg against 1 / (1 + e^f) in long double over the range fitted
// sigmoids reach, so a change to Exp cannot quietly degrade probabilities.
// The bound is in ulps of the double result.
TEST(SimdMathTest, PlattFromArgWithinUlpsOfLongDoubleReference) {
  constexpr int64_t kMaxUlps = 4;
  Rng rng(24);
  int64_t max_ulps = 0;
  double worst = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const double f = rng.Uniform(-40.0, 40.0);
    const double want = static_cast<double>(
        1.0L / (1.0L + std::exp(static_cast<long double>(f))));
    const double got = simd::PlattFromArg(f);
    const int64_t ulps = std::abs(std::bit_cast<int64_t>(got) -
                                  std::bit_cast<int64_t>(want));
    if (ulps > max_ulps) {
      max_ulps = ulps;
      worst = f;
    }
  }
  EXPECT_LE(max_ulps, kMaxUlps) << "at f = " << worst;
}

TEST(SimdPathStatsTest, RecordsCallsElementsAndFlops) {
  simd::ResetPathStats();
  CsrMatrix a = RandomCsr(12, 31, 3);
  std::vector<int32_t> batch = {1, 2}, targets = {3, 4, 6};
  std::vector<double> out(batch.size() * targets.size());
  const OpStats stats = BatchRowDots2(a, batch, a, targets, out.data());
  const simd::PathStatsSnapshot snap =
      simd::PathStats(simd::SimdPath::kBatchRowDots);
  EXPECT_EQ(snap.calls, 1);
  EXPECT_EQ(snap.flops, stats.flops);
  EXPECT_GT(snap.elements, 0);
  simd::ResetPathStats();
  EXPECT_EQ(simd::PathStats(simd::SimdPath::kBatchRowDots).calls, 0);
}

}  // namespace
}  // namespace gmpsvm
