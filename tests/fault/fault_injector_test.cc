// FaultPlan / FaultInjector / retry policy unit tests: determinism, the two
// chaos bounds (consecutive cap, per-site total cap), per-site stream
// independence, the chaos streams' recorded decisions, metrics wiring, and
// validation.

#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/string_util.h"

#include "fault/retry.h"
#include "obs/metrics.h"

namespace gmpsvm::fault {
namespace {

std::vector<bool> Draw(FaultInjector& injector, Site site, int n) {
  std::vector<bool> decisions;
  decisions.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) decisions.push_back(injector.ShouldInject(site));
  return decisions;
}

TEST(FaultPlanTest, ChaosValidatesAndBoundsConsecutiveFaults) {
  const FaultPlan plan = FaultPlan::Chaos(7);
  GMP_CHECK_OK(plan.Validate());
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_GT(plan.max_consecutive_per_site, 0);
  EXPECT_GT(plan.kernel_row_fail_prob, 0.0);
  EXPECT_EQ(plan.swap_fail_prob, 0.0);  // swaps are opt-in chaos
}

TEST(FaultPlanTest, ValidateRejectsBadFields) {
  FaultPlan plan;
  plan.alloc_fail_prob = 1.5;
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());
  plan = FaultPlan();
  plan.evict_poison_prob = -0.1;
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());
  plan = FaultPlan();
  plan.latency_spike_seconds = -1.0;
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());
  plan = FaultPlan();
  plan.interrupt_after_pairs = -2;
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());
}

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  const FaultPlan plan = FaultPlan::Chaos(123);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int s = 0; s < kNumFaultSites; ++s) {
    const Site site = static_cast<Site>(s);
    EXPECT_EQ(Draw(a, site, 200), Draw(b, site, 200)) << SiteName(site);
  }
  EXPECT_EQ(a.total_injected(), b.total_injected());
}

TEST(FaultInjectorTest, DifferentSeedsDifferentDecisions) {
  FaultInjector a(FaultPlan::Chaos(1));
  FaultInjector b(FaultPlan::Chaos(2));
  EXPECT_NE(Draw(a, Site::kBufferEvict, 300),
            Draw(b, Site::kBufferEvict, 300));
}

TEST(FaultInjectorTest, SitesDrawFromIndependentStreams) {
  const FaultPlan plan = FaultPlan::Chaos(99);
  FaultInjector pure(plan);
  FaultInjector interleaved(plan);
  // Consuming decisions at other sites must not perturb kDeviceAlloc's
  // sequence.
  std::vector<bool> expected = Draw(pure, Site::kDeviceAlloc, 100);
  std::vector<bool> got;
  for (int i = 0; i < 100; ++i) {
    interleaved.ShouldInject(Site::kLatencySpike);
    interleaved.ShouldInject(Site::kBufferEvict);
    got.push_back(interleaved.ShouldInject(Site::kDeviceAlloc));
    interleaved.ShouldInject(Site::kKernelRowBatch);
  }
  EXPECT_EQ(got, expected);
}

// The first 64 decisions of every site under FaultPlan::Chaos at the drills'
// two chaos seeds, decision i in bit i. They were recorded when two more
// device sites (launch and transfer failures) held the first two forks of
// the plan seed; each site keeps its fork, so a seed injects the faults it
// always did.
struct ChaosStreamPin {
  uint64_t seed;
  Site site;
  uint64_t bits;
};

constexpr ChaosStreamPin kChaosStreamPins[] = {
    {7, Site::kDeviceAlloc, 0x8035120180401082ull},
    {7, Site::kKernelRowBatch, 0x010000c601002040ull},
    {7, Site::kBufferEvict, 0xd82448458c082808ull},
    {7, Site::kModelSwap, 0x0000000000000000ull},
    {7, Site::kLatencySpike, 0x0210100000000000ull},
    {7, Site::kTrainInterrupt, 0x0000000000000000ull},
    {7, Site::kDeviceLoss, 0x019b0a55b0d60c2aull},
    {7, Site::kDeltaParse, 0x46800401440a6c0dull},
    {7, Site::kCanary, 0x0000100002c198c4ull},
    {7, Site::kNodeLoss, 0x4ad1000a6488b622ull},
    {11, Site::kDeviceAlloc, 0x0010503240800100ull},
    {11, Site::kKernelRowBatch, 0x8068100c81005026ull},
    {11, Site::kBufferEvict, 0x11846d8092201810ull},
    {11, Site::kModelSwap, 0x0000000000000000ull},
    {11, Site::kLatencySpike, 0x0000000000080024ull},
    {11, Site::kTrainInterrupt, 0x0000000000000000ull},
    {11, Site::kDeviceLoss, 0x88c651890ac8358bull},
    {11, Site::kDeltaParse, 0x80009890c9102b30ull},
    {11, Site::kCanary, 0x2344010020190088ull},
    {11, Site::kNodeLoss, 0x130625aa6b010825ull},
};
static_assert(std::size(kChaosStreamPins) == 2 * kNumFaultSites,
              "every site is pinned at both seeds");

TEST(FaultInjectorTest, ChaosStreamsKeepTheirRecordedDecisions) {
  for (const ChaosStreamPin& pin : kChaosStreamPins) {
    FaultInjector injector(FaultPlan::Chaos(pin.seed));
    uint64_t bits = 0;
    for (int i = 0; i < 64; ++i) {
      if (injector.ShouldInject(pin.site)) bits |= uint64_t{1} << i;
    }
    EXPECT_EQ(bits, pin.bits) << StrPrintf(
        "seed %llu, site %s: got 0x%016llx",
        static_cast<unsigned long long>(pin.seed), SiteName(pin.site),
        static_cast<unsigned long long>(bits));
  }
}

TEST(FaultInjectorTest, ConsecutiveCapForcesASuccess) {
  FaultPlan plan;
  plan.alloc_fail_prob = 1.0;  // would fail forever without the cap
  plan.max_consecutive_per_site = 3;
  FaultInjector injector(plan);
  const std::vector<bool> decisions = Draw(injector, Site::kDeviceAlloc, 8);
  const std::vector<bool> expected = {true, true, true, false,
                                      true, true, true, false};
  EXPECT_EQ(decisions, expected);
}

TEST(FaultInjectorTest, MaxFaultsPerSiteHeals) {
  FaultPlan plan;
  plan.alloc_fail_prob = 1.0;
  plan.max_consecutive_per_site = 0;  // unbounded streaks
  plan.max_faults_per_site = 5;
  FaultInjector injector(plan);
  int injected = 0;
  for (int i = 0; i < 50; ++i) {
    if (injector.ShouldInject(Site::kDeviceAlloc)) ++injected;
  }
  EXPECT_EQ(injected, 5);
  EXPECT_EQ(injector.injected(Site::kDeviceAlloc), 5);
  EXPECT_FALSE(injector.ShouldInject(Site::kDeviceAlloc));  // healed for good
}

TEST(FaultInjectorTest, ZeroProbabilitySiteNeverInjects) {
  FaultPlan plan;  // all probabilities zero
  FaultInjector injector(plan);
  for (int i = 0; i < 100; ++i) {
    for (int s = 0; s < kNumFaultSites; ++s) {
      EXPECT_FALSE(injector.ShouldInject(static_cast<Site>(s)));
    }
  }
  EXPECT_EQ(injector.total_injected(), 0);
}

TEST(FaultInjectorTest, LatencySpikeReturnsConfiguredSeconds) {
  FaultPlan plan;
  plan.latency_spike_prob = 1.0;
  plan.latency_spike_seconds = 0.25;
  plan.max_consecutive_per_site = 0;
  FaultInjector injector(plan);
  EXPECT_DOUBLE_EQ(injector.MaybeLatencySpike(), 0.25);
  plan.latency_spike_prob = 0.0;
  FaultInjector quiet(plan);
  EXPECT_DOUBLE_EQ(quiet.MaybeLatencySpike(), 0.0);
}

TEST(FaultInjectorTest, InterruptFiresAfterConfiguredPairs) {
  FaultPlan plan;
  plan.interrupt_after_pairs = 3;
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.ShouldInterruptTraining(0));
  EXPECT_FALSE(injector.ShouldInterruptTraining(2));
  EXPECT_TRUE(injector.ShouldInterruptTraining(3));
  EXPECT_EQ(injector.injected(Site::kTrainInterrupt), 1);

  FaultInjector off((FaultPlan()));
  EXPECT_FALSE(off.ShouldInterruptTraining(100));
}

TEST(FaultInjectorTest, MetricsSeriesExistEagerlyAndCountInjections) {
  obs::MetricsRegistry metrics;
  FaultPlan plan;
  plan.alloc_fail_prob = 1.0;
  plan.max_consecutive_per_site = 0;
  FaultInjector injector(plan, &metrics);

  const std::string before = metrics.ToPrometheusText();
  // Every site's series exists at zero before any injection.
  for (int s = 0; s < kNumFaultSites; ++s) {
    const std::string series =
        std::string("gmpsvm_fault_injected_total{site=\"") +
        SiteName(static_cast<Site>(s)) + "\"} 0";
    EXPECT_NE(before.find(series), std::string::npos) << series << "\n"
                                                      << before;
  }

  for (int i = 0; i < 4; ++i) injector.ShouldInject(Site::kDeviceAlloc);
  const std::string after = metrics.ToPrometheusText();
  EXPECT_NE(
      after.find("gmpsvm_fault_injected_total{site=\"device_alloc\"} 4"),
      std::string::npos)
      << after;
}

TEST(RetryPolicyTest, ValidateRejectsBadFields) {
  RetryPolicy policy;
  GMP_CHECK_OK(policy.Validate());
  policy.max_attempts = 0;
  EXPECT_TRUE(policy.Validate().IsInvalidArgument());
}

TEST(RetryPolicyTest, BackoffIsDeterministicBoundedAndGrows) {
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const double a = BackoffSeconds(attempt, 42);
    const double b = BackoffSeconds(attempt, 42);
    EXPECT_EQ(a, b);  // pure function of (attempt, seed)
    // Jitter is bounded: within +-20% of the capped exponential base.
    const double base = std::min(0.25, 1e-3 * std::pow(2.0, attempt - 1));
    EXPECT_GE(a, base * 0.8);
    EXPECT_LE(a, base * 1.2);
  }
  // Different seeds jitter differently.
  EXPECT_NE(BackoffSeconds(3, 1), BackoffSeconds(3, 2));
  // The base grows with the attempt number past the jitter band...
  EXPECT_LT(BackoffSeconds(1, 0), BackoffSeconds(4, 0));
  // ...and saturates at the cap.
  EXPECT_LE(BackoffSeconds(40, 0), 0.25 * 1.2);
  EXPECT_GE(BackoffSeconds(40, 0), 0.25 * 0.8);
}

// Exact backoffs of the configurable schedule (initial 1 ms, multiplier 2,
// cap 0.25 s, jitter 0.2, the defaults no caller changed), recorded before
// the schedule became fixed: retried runs keep their simulated seconds.
TEST(RetryPolicyTest, BackoffKeepsItsRecordedValues) {
  const int attempts[] = {1, 2, 3, 5, 8, 9, 12, 40};
  const double seed0[] = {0x1.2e564900326dbp-10, 0x1.fdedaa5341b83p-10,
                          0x1.a8f955af4f152p-9,  0x1.b9bba07e6b09p-7,
                          0x1.229e22e8f97b9p-3,  0x1.cbeac6d9ce3adp-3,
                          0x1.1abadc599bbe5p-2,  0x1.d954c85c1d374p-3};
  const double seed42[] = {0x1.1f79526404e1ep-10, 0x1.2ac1fcb95015fp-9,
                           0x1.f1ee05117239cp-9,  0x1.d31f2e760c836p-7,
                           0x1.1b86ee881b578p-3,  0x1.1e9c396bd7edbp-2,
                           0x1.1582615b5f0d2p-2,  0x1.f02166c2c041dp-3};
  for (size_t i = 0; i < std::size(attempts); ++i) {
    EXPECT_EQ(BackoffSeconds(attempts[i], 0), seed0[i]) << attempts[i];
    EXPECT_EQ(BackoffSeconds(attempts[i], 42), seed42[i]) << attempts[i];
  }
}

TEST(RetryPolicyTest, IsTransientFaultMatchesUnavailableOnly) {
  EXPECT_TRUE(IsTransientFault(Status::Unavailable("flaky")));
  EXPECT_FALSE(IsTransientFault(Status::OK()));
  EXPECT_FALSE(IsTransientFault(Status::InvalidArgument("bad")));
  EXPECT_FALSE(IsTransientFault(Status::IoError("disk")));
}

}  // namespace
}  // namespace gmpsvm::fault
