// Deterministic, seeded fault injection for the simulated-device stack.
//
// A FaultPlan declares per-site failure probabilities; a FaultInjector draws
// from per-site forked Rng streams, so consuming decisions at one site never
// perturbs the sequence another site observes. Everything is derived from the
// plan's seed: the same plan against the same workload injects the same
// faults on every run, which is what makes chaos tests reproducible and lets
// the recovery machinery claim byte-identical models under retries.
//
// Two knobs bound the chaos so recovery can always converge:
//   * max_consecutive_per_site forces a success after k consecutive
//     injections at one site, so any retry loop with >= k+1 attempts is
//     guaranteed to get through;
//   * max_faults_per_site caps the total injections at a site (useful for
//     "fail the first N allocations, then heal" serve scenarios).
//
// Sites are consulted by the components they belong to: SimExecutor
// (alloc/latency), KernelBuffer (eviction poisoning),
// BatchSmoSolver (kernel-row batches), ModelRegistry (swap failures), and
// the trainers (mid-run interrupt for checkpoint/resume testing).

#ifndef GMPSVM_FAULT_FAULT_INJECTOR_H_
#define GMPSVM_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace gmpsvm::fault {

// Where a fault can be injected.
enum class Site : int {
  kDeviceAlloc = 0,    // SimExecutor::Allocate fails transiently
  kKernelRowBatch,     // BatchSmoSolver's batched row computation fails
  kBufferEvict,        // KernelBuffer poisons a resident row on eviction
  kModelSwap,          // ModelRegistry::Register of an existing name fails
  kLatencySpike,       // a charged task additionally stalls its stream
  kTrainInterrupt,     // training aborts after N completed pairs
  kDeviceLoss,         // a cluster device dies; its unfinished pairs are
                       // rescheduled onto the surviving devices
  kDeltaParse,         // reading a dataset delta file fails transiently
  kCanary,             // a canary comparison batch fails transiently
  kNodeLoss,           // a whole simulated node dies; every device on it is
                       // lost and its pairs/shards are rescheduled
};
inline constexpr int kNumFaultSites = 10;

// Stable lowercase name for `site`, used as the {site=...} metric label.
const char* SiteName(Site site);

struct FaultPlan {
  uint64_t seed = 1;

  // Per-site injection probability in [0, 1]. 0 disables the site.
  double alloc_fail_prob = 0.0;
  double kernel_row_fail_prob = 0.0;
  double evict_poison_prob = 0.0;
  double swap_fail_prob = 0.0;
  double latency_spike_prob = 0.0;
  // Consulted once per non-primary cluster device at the start of a cluster
  // training run (device 0 never dies, so progress is always possible).
  double device_loss_prob = 0.0;
  // Online-pipeline sites: delta-file reads and canary comparison batches
  // fail transiently (kUnavailable); both are retried under RetryPolicy.
  double delta_parse_fail_prob = 0.0;
  double canary_fail_prob = 0.0;
  // Consulted once per non-primary node at the start of a multi-node cluster
  // training run (node 0 never dies, so progress is always possible). Losing
  // a node loses every device on it.
  double node_loss_prob = 0.0;

  // Simulated seconds a latency spike adds to the stream it hits.
  double latency_spike_seconds = 1e-4;

  // After this many consecutive injections at one site the next decision is
  // forced to succeed (and the streak resets). <= 0 disables the bound —
  // only safe with probabilities < 1 or tests that expect failure.
  int max_consecutive_per_site = 2;

  // Total injections allowed per site; < 0 means unbounded.
  int64_t max_faults_per_site = -1;

  // > 0: trainers abort with kUnavailable after completing this many pairs
  // in the current run (simulated kill for checkpoint/resume tests).
  int64_t interrupt_after_pairs = 0;

  // The probability configured for `site`.
  double ProbFor(Site site) const;

  // Rejects probabilities outside [0, 1] and negative spike durations.
  Status Validate() const;

  // A ready-made plan exercising every transient site a program consults at
  // moderate rates, bounded so retrying components always converge.
  static FaultPlan Chaos(uint64_t seed);
};

class FaultInjector {
 public:
  // When `metrics` is non-null, a gmpsvm_fault_injected_total{site=...}
  // counter is created eagerly for every site (so the series exist in the
  // export even at zero) and incremented on each injection. The registry
  // must outlive the injector.
  explicit FaultInjector(const FaultPlan& plan,
                         obs::MetricsRegistry* metrics = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  // Draws the next decision for `site`. Thread-safe; decisions at different
  // sites come from independent Rng streams.
  bool ShouldInject(Site site);

  // Convenience for Site::kLatencySpike: seconds to add to the stream, or 0.
  double MaybeLatencySpike();

  // Whether training should abort now, given how many pairs the current run
  // has completed. Counts as a kTrainInterrupt injection when it fires.
  bool ShouldInterruptTraining(int64_t pairs_completed_this_run);

  // Injections so far, per site and total.
  int64_t injected(Site site) const;
  int64_t total_injected() const;

 private:
  FaultPlan plan_;
  mutable std::mutex mu_;
  std::vector<Rng> rngs_;  // one per site, forked from the plan seed
  std::array<int64_t, kNumFaultSites> injected_{};
  std::array<int, kNumFaultSites> consecutive_{};
  std::array<obs::Counter*, kNumFaultSites> counters_{};
};

}  // namespace gmpsvm::fault

#endif  // GMPSVM_FAULT_FAULT_INJECTOR_H_
