#include "fault/fault_injector.h"

#include "common/string_util.h"

namespace gmpsvm::fault {
namespace {

constexpr const char* kSiteNames[kNumFaultSites] = {
    "device_alloc", "kernel_row_batch", "buffer_evict", "model_swap",
    "latency_spike", "train_interrupt", "device_loss", "delta_parse",
    "canary", "node_loss",
};

// Site s draws from fork s + kFirstSiteStream of the plan seed's Rng. Forks
// 1 and 2 are drawn and discarded: they fed two retired device sites, and
// keeping every site's fork keeps each seed's faults (fault_injector_test
// pins them).
constexpr int kFirstSiteStream = 3;

Status CheckProb(const char* field, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(
        StrPrintf("%s must be in [0, 1], got %g", field, p));
  }
  return Status::OK();
}

}  // namespace

const char* SiteName(Site site) {
  const int i = static_cast<int>(site);
  if (i < 0 || i >= kNumFaultSites) return "unknown";
  return kSiteNames[i];
}

double FaultPlan::ProbFor(Site site) const {
  switch (site) {
    case Site::kDeviceAlloc:
      return alloc_fail_prob;
    case Site::kKernelRowBatch:
      return kernel_row_fail_prob;
    case Site::kBufferEvict:
      return evict_poison_prob;
    case Site::kModelSwap:
      return swap_fail_prob;
    case Site::kLatencySpike:
      return latency_spike_prob;
    case Site::kTrainInterrupt:
      return interrupt_after_pairs > 0 ? 1.0 : 0.0;
    case Site::kDeviceLoss:
      return device_loss_prob;
    case Site::kDeltaParse:
      return delta_parse_fail_prob;
    case Site::kCanary:
      return canary_fail_prob;
    case Site::kNodeLoss:
      return node_loss_prob;
  }
  return 0.0;
}

Status FaultPlan::Validate() const {
  GMP_RETURN_NOT_OK(CheckProb("alloc_fail_prob", alloc_fail_prob));
  GMP_RETURN_NOT_OK(CheckProb("kernel_row_fail_prob", kernel_row_fail_prob));
  GMP_RETURN_NOT_OK(CheckProb("evict_poison_prob", evict_poison_prob));
  GMP_RETURN_NOT_OK(CheckProb("swap_fail_prob", swap_fail_prob));
  GMP_RETURN_NOT_OK(CheckProb("latency_spike_prob", latency_spike_prob));
  GMP_RETURN_NOT_OK(CheckProb("device_loss_prob", device_loss_prob));
  GMP_RETURN_NOT_OK(CheckProb("delta_parse_fail_prob", delta_parse_fail_prob));
  GMP_RETURN_NOT_OK(CheckProb("canary_fail_prob", canary_fail_prob));
  GMP_RETURN_NOT_OK(CheckProb("node_loss_prob", node_loss_prob));
  if (!(latency_spike_seconds >= 0.0)) {
    return Status::InvalidArgument(
        StrPrintf("latency_spike_seconds must be >= 0, got %g",
                  latency_spike_seconds));
  }
  if (interrupt_after_pairs < 0) {
    return Status::InvalidArgument(
        StrPrintf("interrupt_after_pairs must be >= 0, got %lld",
                  static_cast<long long>(interrupt_after_pairs)));
  }
  return Status::OK();
}

FaultPlan FaultPlan::Chaos(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.alloc_fail_prob = 0.15;
  plan.kernel_row_fail_prob = 0.2;
  plan.evict_poison_prob = 0.25;
  plan.latency_spike_prob = 0.05;
  // High enough that a 4-device chaos run usually loses a device; the cluster
  // trainer consults it once per non-primary device, never for device 0.
  plan.device_loss_prob = 0.4;
  plan.delta_parse_fail_prob = 0.2;
  plan.canary_fail_prob = 0.2;
  // One non-primary node in a 2-node chaos run dies often enough to exercise
  // orphan-shard rescheduling; node 0 is never consulted.
  plan.node_loss_prob = 0.4;
  plan.max_consecutive_per_site = 2;
  return plan;
}

FaultInjector::FaultInjector(const FaultPlan& plan,
                             obs::MetricsRegistry* metrics)
    : plan_(plan) {
  Rng root(plan_.seed);
  for (int s = 1; s < kFirstSiteStream; ++s) {
    root.Fork(static_cast<uint64_t>(s));
  }
  rngs_.reserve(kNumFaultSites);
  for (int s = 0; s < kNumFaultSites; ++s) {
    rngs_.push_back(root.Fork(static_cast<uint64_t>(s + kFirstSiteStream)));
  }
  if (metrics != nullptr) {
    for (int s = 0; s < kNumFaultSites; ++s) {
      counters_[static_cast<size_t>(s)] = metrics->GetCounter(
          "gmpsvm_fault_injected_total", "Faults injected, by site.",
          {{"site", kSiteNames[s]}});
    }
  }
}

bool FaultInjector::ShouldInject(Site site) {
  const int i = static_cast<int>(site);
  if (i < 0 || i >= kNumFaultSites) return false;
  const double p = plan_.ProbFor(site);
  if (p <= 0.0) return false;

  std::lock_guard<std::mutex> lock(mu_);
  if (plan_.max_faults_per_site >= 0 &&
      injected_[static_cast<size_t>(i)] >= plan_.max_faults_per_site) {
    return false;
  }
  if (plan_.max_consecutive_per_site > 0 &&
      consecutive_[static_cast<size_t>(i)] >= plan_.max_consecutive_per_site) {
    consecutive_[static_cast<size_t>(i)] = 0;
    return false;
  }
  if (!rngs_[static_cast<size_t>(i)].Bernoulli(p)) {
    consecutive_[static_cast<size_t>(i)] = 0;
    return false;
  }
  ++injected_[static_cast<size_t>(i)];
  ++consecutive_[static_cast<size_t>(i)];
  if (counters_[static_cast<size_t>(i)] != nullptr) {
    counters_[static_cast<size_t>(i)]->Increment();
  }
  return true;
}

double FaultInjector::MaybeLatencySpike() {
  return ShouldInject(Site::kLatencySpike) ? plan_.latency_spike_seconds : 0.0;
}

bool FaultInjector::ShouldInterruptTraining(int64_t pairs_completed_this_run) {
  if (plan_.interrupt_after_pairs <= 0 ||
      pairs_completed_this_run < plan_.interrupt_after_pairs) {
    return false;
  }
  const auto i = static_cast<size_t>(Site::kTrainInterrupt);
  std::lock_guard<std::mutex> lock(mu_);
  ++injected_[i];
  if (counters_[i] != nullptr) counters_[i]->Increment();
  return true;
}

int64_t FaultInjector::injected(Site site) const {
  const int i = static_cast<int>(site);
  if (i < 0 || i >= kNumFaultSites) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return injected_[static_cast<size_t>(i)];
}

int64_t FaultInjector::total_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (int64_t n : injected_) total += n;
  return total;
}

}  // namespace gmpsvm::fault
