#include "fleet/autoscaler.h"

namespace gmpsvm::fleet {

Status AutoscalePolicy::Validate() const {
  if (min_replicas < 1) {
    return Status::InvalidArgument("min_replicas must be >= 1");
  }
  if (max_replicas < min_replicas) {
    return Status::InvalidArgument("max_replicas must be >= min_replicas");
  }
  if (scale_up_ticks < 1 || scale_down_ticks < 1) {
    return Status::InvalidArgument("scale ticks must be >= 1");
  }
  if (scale_down_depth > scale_up_depth) {
    return Status::InvalidArgument(
        "scale_down_depth must be <= scale_up_depth");
  }
  return Status::OK();
}

ScaleDecision Autoscaler::Tick(double mean_queue_depth, int current_replicas) {
  if (mean_queue_depth >= policy_.scale_up_depth) {
    idle_streak_ = 0;
    if (++hot_streak_ >= policy_.scale_up_ticks) {
      hot_streak_ = 0;
      if (current_replicas < policy_.max_replicas) {
        return ScaleDecision::kScaleUp;
      }
      return ScaleDecision::kHold;  // already at the ceiling
    }
    return ScaleDecision::kHold;
  }
  if (mean_queue_depth <= policy_.scale_down_depth) {
    hot_streak_ = 0;
    if (++idle_streak_ >= policy_.scale_down_ticks) {
      idle_streak_ = 0;
      if (current_replicas > policy_.min_replicas) {
        return ScaleDecision::kScaleDown;
      }
      return ScaleDecision::kHold;  // already at the floor
    }
    return ScaleDecision::kHold;
  }
  // Mid-band observations break both streaks.
  hot_streak_ = 0;
  idle_streak_ = 0;
  return ScaleDecision::kHold;
}

}  // namespace gmpsvm::fleet
