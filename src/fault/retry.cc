#include "fault/retry.h"

#include <algorithm>

#include "common/string_util.h"
#include "simd/simd_math.h"

namespace gmpsvm::fault {
namespace {

// SplitMix64 finalizer — the same mixing common/rng.h uses for Fork().
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace

Status RetryPolicy::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument(
        StrPrintf("max_attempts must be >= 1, got %d", max_attempts));
  }
  if (!(initial_backoff_seconds >= 0.0)) {
    return Status::InvalidArgument(
        StrPrintf("initial_backoff_seconds must be >= 0, got %g",
                  initial_backoff_seconds));
  }
  if (!(backoff_multiplier >= 1.0)) {
    return Status::InvalidArgument(StrPrintf(
        "backoff_multiplier must be >= 1, got %g", backoff_multiplier));
  }
  if (!(max_backoff_seconds >= initial_backoff_seconds)) {
    return Status::InvalidArgument(
        StrPrintf("max_backoff_seconds (%g) must be >= "
                  "initial_backoff_seconds (%g)",
                  max_backoff_seconds, initial_backoff_seconds));
  }
  if (!(jitter_fraction >= 0.0 && jitter_fraction < 1.0)) {
    return Status::InvalidArgument(StrPrintf(
        "jitter_fraction must be in [0, 1), got %g", jitter_fraction));
  }
  return Status::OK();
}

double BackoffSeconds(const RetryPolicy& policy, int attempt, uint64_t seed) {
  if (attempt < 1) attempt = 1;
  const double base =
      std::min(policy.max_backoff_seconds,
               policy.initial_backoff_seconds *
                   simd::PowInt(policy.backoff_multiplier, attempt - 1));
  const uint64_t bits =
      Mix64(seed ^ (static_cast<uint64_t>(attempt) * 0x9E3779B97F4A7C15ull));
  const double unit =
      static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
  const double factor =
      1.0 + policy.jitter_fraction * (2.0 * unit - 1.0);
  return base * factor;
}

bool IsTransientFault(const Status& status) { return status.IsUnavailable(); }

}  // namespace gmpsvm::fault
