#include "fleet/autoscaler.h"

#include <gtest/gtest.h>

#include <vector>

namespace gmpsvm::fleet {
namespace {

TEST(AutoscalePolicyTest, ValidateRejectsBadBounds) {
  AutoscalePolicy policy;
  EXPECT_TRUE(policy.Validate().ok());

  policy.min_replicas = 0;
  EXPECT_FALSE(policy.Validate().ok());

  policy = AutoscalePolicy{};
  policy.max_replicas = 0;
  EXPECT_FALSE(policy.Validate().ok());

  policy = AutoscalePolicy{};
  policy.min_replicas = 5;
  policy.max_replicas = 2;
  EXPECT_FALSE(policy.Validate().ok());

  policy = AutoscalePolicy{};
  policy.scale_up_ticks = 0;
  EXPECT_FALSE(policy.Validate().ok());

  policy = AutoscalePolicy{};
  policy.scale_down_depth = 10.0;  // idle threshold above the hot threshold
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(AutoscalerTest, ScaleUpNeedsConsecutiveHotTicks) {
  AutoscalePolicy policy;
  policy.scale_up_depth = 8.0;
  policy.scale_up_ticks = 3;
  Autoscaler scaler(policy);

  EXPECT_EQ(scaler.Tick(10.0, 1), ScaleDecision::kHold);
  EXPECT_EQ(scaler.Tick(10.0, 1), ScaleDecision::kHold);
  EXPECT_EQ(scaler.Tick(10.0, 1), ScaleDecision::kScaleUp);
  // The decision resets the streak: the next hot tick starts over.
  EXPECT_EQ(scaler.Tick(10.0, 2), ScaleDecision::kHold);
}

TEST(AutoscalerTest, MidBandObservationResetsTheStreak) {
  AutoscalePolicy policy;
  policy.scale_up_depth = 8.0;
  policy.scale_up_ticks = 2;
  Autoscaler scaler(policy);

  EXPECT_EQ(scaler.Tick(10.0, 1), ScaleDecision::kHold);
  EXPECT_EQ(scaler.Tick(1.0, 1), ScaleDecision::kHold);  // mid-band: reset
  EXPECT_EQ(scaler.Tick(10.0, 1), ScaleDecision::kHold);
  EXPECT_EQ(scaler.Tick(10.0, 1), ScaleDecision::kScaleUp);
}

TEST(AutoscalerTest, ScaleDownNeedsLongerIdleStreak) {
  AutoscalePolicy policy;
  policy.scale_down_depth = 0.25;
  policy.scale_down_ticks = 4;
  Autoscaler scaler(policy);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(scaler.Tick(0.0, 2), ScaleDecision::kHold);
  }
  EXPECT_EQ(scaler.Tick(0.0, 2), ScaleDecision::kScaleDown);
}

TEST(AutoscalerTest, RespectsFloorAndCeiling) {
  AutoscalePolicy policy;
  policy.min_replicas = 1;
  policy.max_replicas = 2;
  policy.scale_up_ticks = 1;
  policy.scale_down_ticks = 1;
  Autoscaler scaler(policy);

  // At the ceiling a hot observation holds instead of scaling up.
  EXPECT_EQ(scaler.Tick(100.0, 2), ScaleDecision::kHold);
  // At the floor an idle observation holds instead of scaling down.
  EXPECT_EQ(scaler.Tick(0.0, 1), ScaleDecision::kHold);
  // Away from the bounds the same observations decide.
  EXPECT_EQ(scaler.Tick(100.0, 1), ScaleDecision::kScaleUp);
  EXPECT_EQ(scaler.Tick(0.0, 2), ScaleDecision::kScaleDown);
}

TEST(AutoscalerTest, DeterministicForTheSameObservationSequence) {
  const double depths[] = {9.0, 9.0, 0.0, 0.0, 0.0, 0.0, 12.0, 12.0};
  AutoscalePolicy policy;
  policy.scale_up_ticks = 2;
  policy.scale_down_ticks = 4;

  auto run = [&] {
    Autoscaler scaler(policy);
    std::vector<ScaleDecision> decisions;
    int replicas = 2;
    for (double depth : depths) {
      ScaleDecision d = scaler.Tick(depth, replicas);
      if (d == ScaleDecision::kScaleUp) ++replicas;
      if (d == ScaleDecision::kScaleDown) --replicas;
      decisions.push_back(d);
    }
    return decisions;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace gmpsvm::fleet
