#include "fault/retry.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

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
  return Status::OK();
}

double BackoffSeconds(int attempt, uint64_t seed) {
  constexpr double kInitialSeconds = 1e-3;
  constexpr double kMaxSeconds = 0.25;
  constexpr double kJitterFraction = 0.2;
  if (attempt < 1) attempt = 1;
  // ldexp scales by a power of two exactly; a very late attempt overflows to
  // infinity, which the cap clamps.
  const double base =
      std::min(kMaxSeconds, std::ldexp(kInitialSeconds, attempt - 1));
  const uint64_t bits =
      Mix64(seed ^ (static_cast<uint64_t>(attempt) * 0x9E3779B97F4A7C15ull));
  const double unit =
      static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
  const double factor = 1.0 + kJitterFraction * (2.0 * unit - 1.0);
  return base * factor;
}

bool IsTransientFault(const Status& status) { return status.IsUnavailable(); }

}  // namespace gmpsvm::fault
