#include "simd/simd.h"

#include <atomic>
#include <chrono>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "simd/simd_tiers.h"

namespace gmpsvm::simd {
namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
#else
  return false;
#endif
}

const SimdOps* TableFor(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return ScalarOpsTable();
    case SimdTier::kAvx2:
      return Avx2OpsTable();
    case SimdTier::kAuto:
      break;
  }
  return nullptr;
}

// The process-wide tier. kAuto means "not yet overridden": reads resolve it
// through DetectBestTier() without writing, so an explicit SetActiveTier
// always wins regardless of initialization order.
std::atomic<SimdTier> g_active{SimdTier::kAuto};

struct PathCounters {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> elements{0};
  std::atomic<double> flops{0.0};
  std::atomic<int64_t> nanos{0};
};

PathCounters g_paths[static_cast<int>(SimdPath::kNumPaths)];

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

double* AlignedPanel(std::vector<double>& storage, int64_t cols) {
  constexpr size_t kAlignDoubles = 32 / sizeof(double);
  const size_t need = static_cast<size_t>(cols) * kPanelRows + kAlignDoubles;
  if (storage.size() < need) storage.resize(need, 0.0);
  const size_t misalign =
      reinterpret_cast<uintptr_t>(storage.data()) % 32 / sizeof(double);
  return storage.data() + (kAlignDoubles - misalign) % kAlignDoubles;
}

bool TierSupported(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAuto:
    case SimdTier::kScalar:
      return true;
    case SimdTier::kAvx2:
      return CpuHasAvx2() && Avx2OpsTable() != nullptr;
  }
  return false;
}

SimdTier DetectBestTier() {
  static const SimdTier best = TierSupported(SimdTier::kAvx2)
                                   ? SimdTier::kAvx2
                                   : SimdTier::kScalar;
  return best;
}

SimdTier ActiveTier() {
  const SimdTier tier = g_active.load(std::memory_order_relaxed);
  return tier == SimdTier::kAuto ? DetectBestTier() : tier;
}

Status SetActiveTier(SimdTier tier) {
  if (!TierSupported(tier)) {
    return Status::InvalidArgument(
        StrPrintf("simd tier '%s' is not supported on this CPU (detected %s)",
                  TierName(tier), TierName(DetectBestTier())));
  }
  g_active.store(tier, std::memory_order_relaxed);
  return Status::OK();
}

const SimdOps& OpsFor(SimdTier tier) {
  if (tier == SimdTier::kAuto) tier = ActiveTier();
  const SimdOps* table = TableFor(tier);
  return table != nullptr ? *table : *ScalarOpsTable();
}

Result<SimdTier> TierFromString(const std::string& name) {
  if (name == "auto") return SimdTier::kAuto;
  if (name == "scalar") return SimdTier::kScalar;
  if (name == "avx2") return SimdTier::kAvx2;
  return Status::InvalidArgument(StrPrintf(
      "unknown simd tier '%s' (expected auto|scalar|avx2)", name.c_str()));
}

const char* TierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAuto:
      return "auto";
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
  }
  return "?";
}

std::string DescribeEnvironment() {
#if defined(__x86_64__) || defined(_M_X64)
  const char* isa = "x86-64";
#elif defined(__aarch64__)
  const char* isa = "aarch64";
#else
  const char* isa = "unknown";
#endif
  std::string tiers = "scalar";
  if (TierSupported(SimdTier::kAvx2)) tiers += ",avx2";
  const SimdOps& ops = OpsFor(SimdTier::kAuto);
  return StrPrintf("isa=%s supported=%s active=%s lanes=%d", isa,
                   tiers.c_str(), ops.name, ops.lane_width);
}

const char* SimdPathName(SimdPath path) {
  switch (path) {
    case SimdPath::kBatchRowDots:
      return "batch_row_dots";
    case SimdPath::kScatterRowDots:
      return "scatter_row_dots";
    case SimdPath::kKernelTransform:
      return "kernel_transform";
    case SimdPath::kCoupling:
      return "coupling";
    case SimdPath::kPlatt:
      return "platt";
    case SimdPath::kNumPaths:
      break;
  }
  return "?";
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RecordPath(SimdPath path, int64_t elements, double flops, int64_t nanos,
                int64_t calls) {
  PathCounters& c = g_paths[static_cast<int>(path)];
  c.calls.fetch_add(calls, std::memory_order_relaxed);
  c.elements.fetch_add(elements, std::memory_order_relaxed);
  AtomicAddDouble(&c.flops, flops);
  if (nanos > 0) c.nanos.fetch_add(nanos, std::memory_order_relaxed);
}

void RecordPathNanos(SimdPath path, int64_t nanos) {
  if (nanos > 0) {
    g_paths[static_cast<int>(path)].nanos.fetch_add(nanos,
                                                    std::memory_order_relaxed);
  }
}

PathStatsSnapshot PathStats(SimdPath path) {
  const PathCounters& c = g_paths[static_cast<int>(path)];
  PathStatsSnapshot snap;
  snap.calls = c.calls.load(std::memory_order_relaxed);
  snap.elements = c.elements.load(std::memory_order_relaxed);
  snap.flops = c.flops.load(std::memory_order_relaxed);
  snap.nanos = c.nanos.load(std::memory_order_relaxed);
  return snap;
}

void ResetPathStats() {
  for (PathCounters& c : g_paths) {
    c.calls.store(0, std::memory_order_relaxed);
    c.elements.store(0, std::memory_order_relaxed);
    c.flops.store(0.0, std::memory_order_relaxed);
    c.nanos.store(0, std::memory_order_relaxed);
  }
}

void PublishMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (int i = 0; i < static_cast<int>(SimdPath::kNumPaths); ++i) {
    const SimdPath path = static_cast<SimdPath>(i);
    const PathStatsSnapshot snap = PathStats(path);
    const obs::Labels labels = {{"path", SimdPathName(path)}};
    // Counters publish absolute totals idempotently: add only the delta
    // beyond what the registry already holds, so repeated dumps do not
    // double count.
    const struct {
      const char* name;
      const char* help;
      double total;
    } counters[] = {
        {"gmpsvm_simd_calls_total", "Dispatched SIMD-tier ops per hot path",
         static_cast<double>(snap.calls)},
        {"gmpsvm_simd_elements_total",
         "Elements processed by SIMD-tier ops per hot path",
         static_cast<double>(snap.elements)},
        {"gmpsvm_simd_flops_total",
         "Estimated flops executed by SIMD-tier ops per hot path",
         snap.flops},
    };
    for (const auto& def : counters) {
      obs::Counter* counter = registry->GetCounter(def.name, def.help, labels);
      const double delta = def.total - counter->Value();
      if (delta > 0.0) counter->Add(delta);
    }
    // Effective throughput over the timed calls (flops/ns == GFLOP/s). A
    // wall-clock diagnostic, not part of the determinism contract; paths
    // timed only at coarse granularity report 0 until timed ops run.
    registry
        ->GetGauge("gmpsvm_simd_gflops",
                   "Effective GFLOP/s over timed SIMD-tier calls", labels)
        ->Set(snap.nanos > 0 ? snap.flops / static_cast<double>(snap.nanos)
                             : 0.0);
  }
  const SimdOps& ops = OpsFor(SimdTier::kAuto);
  registry
      ->GetGauge("gmpsvm_simd_active_tier",
                 "Active SIMD tier (info gauge; value is always 1)",
                 {{"tier", ops.name}})
      ->Set(1.0);
  registry
      ->GetGauge("gmpsvm_simd_lane_width",
                 "Doubles per vector register of the active SIMD tier")
      ->Set(static_cast<double>(ops.lane_width));
}

}  // namespace gmpsvm::simd
