// Resource counters accumulated by a SimExecutor. These are the ground truth
// behind every benchmark table: they are incremented by the actual work each
// algorithm performs, so "kernel values computed" really is the number of
// kernel-function evaluations executed on the host.

#ifndef GMPSVM_DEVICE_COUNTERS_H_
#define GMPSVM_DEVICE_COUNTERS_H_

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

namespace gmpsvm {

struct ExecutorCounters {
  // Tasks submitted (kernel launches on the GPU substrate).
  int64_t launches = 0;

  // Arithmetic operations charged by tasks.
  double flops = 0.0;

  // Global-memory traffic charged by tasks.
  double bytes_read = 0.0;
  double bytes_written = 0.0;

  // Host<->device transfer volume.
  double bytes_h2d = 0.0;
  double bytes_d2h = 0.0;

  // Kernel-function evaluations (K(x_i, x_j) values actually computed).
  // Maintained by the kernel module; stored here so reuse/sharing savings are
  // visible per executor.
  int64_t kernel_values_computed = 0;

  // Kernel values served from a buffer/cache instead of recomputed.
  int64_t kernel_values_reused = 0;

  // Memory accounting.
  size_t bytes_in_use = 0;
  size_t peak_bytes_in_use = 0;
  int64_t allocation_failures = 0;

  void Reset() { *this = ExecutorCounters(); }

  // Publishes a snapshot of these counters into `registry` under the
  // gmpsvm_device_* metric names, optionally labeled (e.g. per serve worker).
  // Counter metrics are advanced by the delta from the last published value
  // for the same series, so repeated publication is idempotent for a
  // monotonically growing ExecutorCounters; gauges are set to current /
  // high-water values.
  void PublishTo(obs::MetricsRegistry* registry,
                 const obs::Labels& labels = {}) const;
};

}  // namespace gmpsvm

#endif  // GMPSVM_DEVICE_COUNTERS_H_
