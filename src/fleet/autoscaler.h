// Autoscaler: a pure, deterministic replica-count policy.
//
// The fleet server samples its queue-depth gauges on a fixed cadence and
// feeds each observation to Tick(); the policy answers hold / scale-up /
// drain-and-retire. Hysteresis on both sides — a scale-up needs
// `scale_up_ticks` consecutive observations at or above the high-water
// depth, a scale-down needs `scale_down_ticks` at or below the idle depth —
// keeps a bursty queue from flapping the replica count. The policy holds no
// clock and no randomness: the same observation sequence always yields the
// same decision sequence.

#ifndef GMPSVM_FLEET_AUTOSCALER_H_
#define GMPSVM_FLEET_AUTOSCALER_H_

#include "common/status.h"

namespace gmpsvm::fleet {

struct AutoscalePolicy {
  int min_replicas = 1;
  int max_replicas = 4;

  // Mean queue depth per replica at/above which a tick counts toward
  // scale-up, and the consecutive-tick streak that triggers it.
  double scale_up_depth = 8.0;
  int scale_up_ticks = 2;

  // Mean depth at/below which a tick counts toward drain-and-retire, and
  // the streak that triggers it (longer by default: retiring is cheaper to
  // delay than overload).
  double scale_down_depth = 0.25;
  int scale_down_ticks = 4;

  Status Validate() const;
};

enum class ScaleDecision { kHold, kScaleUp, kScaleDown };

class Autoscaler {
 public:
  explicit Autoscaler(const AutoscalePolicy& policy) : policy_(policy) {}

  // One observation of mean queue depth per replica. Returns the decision;
  // any decision (including one clamped by min/max) resets both streaks.
  ScaleDecision Tick(double mean_queue_depth, int current_replicas);

  const AutoscalePolicy& policy() const { return policy_; }

 private:
  AutoscalePolicy policy_;
  int hot_streak_ = 0;
  int idle_streak_ = 0;
};

}  // namespace gmpsvm::fleet

#endif  // GMPSVM_FLEET_AUTOSCALER_H_
