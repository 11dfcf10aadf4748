// Bounded exponential backoff with deterministic jitter, shared by the
// trainers (per-pair retries) and anything else that retries transient
// faults. Backoff here is *simulated* time: trainers charge it to the failed
// pair's stream, so retried runs cost more sim-seconds but stay
// deterministic and produce byte-identical models.

#ifndef GMPSVM_FAULT_RETRY_H_
#define GMPSVM_FAULT_RETRY_H_

#include <cstdint>

#include "common/status.h"

namespace gmpsvm::fault {

struct RetryPolicy {
  // Total attempts including the first; 1 disables retrying.
  int max_attempts = 5;

  Status Validate() const;
};

// Backoff (simulated seconds) before retry `attempt` (1-based): 1 ms *
// 2^(attempt-1), capped at 0.25 s, then scaled by a jitter factor uniform in
// [0.8, 1.2]. The jitter is a pure function of (seed, attempt), so two runs
// with the same seed wait the same simulated time.
double BackoffSeconds(int attempt, uint64_t seed);

// Whether `status` is a transient fault worth retrying (kUnavailable — the
// code every injected transient fault carries).
bool IsTransientFault(const Status& status);

}  // namespace gmpsvm::fault

#endif  // GMPSVM_FAULT_RETRY_H_
