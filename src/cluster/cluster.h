// SimCluster: N independent simulated devices behind one handle, grouped
// into simulated nodes by a dist::ClusterTopology.
//
// Each device is a full SimExecutor with its own clock, counters, memory
// budget, streams, and (when the trainer attaches one) its own shared
// kernel-block cache — exactly the single-device substrate, multiplied.
// Whole-pair training never moves data between devices: a pair problem
// trains entirely on one device, and every device pays for its own
// host->device copy of the data it touches over its own PCIe link. The
// topology's per-link bandwidth/latency model only enters when the trainer
// shards a pair's instances across devices: the sharded solve's merges are
// priced over intra-node and inter-node links (docs/cost_model.md).
// The default topology is a single node holding every device.
//
// Tracing: one recorder can observe all devices. Lanes are banded per device
// — device d's stream spans land in [d * band, (d + 1) * band) — so a merged
// Perfetto trace shows one row group per device.

#ifndef GMPSVM_CLUSTER_CLUSTER_H_
#define GMPSVM_CLUSTER_CLUSTER_H_

#include <memory>
#include <utility>
#include <vector>

#include "device/executor.h"
#include "device/sim_model.h"
#include "dist/topology.h"
#include "obs/span.h"

namespace gmpsvm::cluster {

// Trace lanes reserved per device in a merged recording.
inline constexpr int kClusterLaneBand = 16;

class SimCluster {
 public:
  // One device per model; heterogeneous clusters are allowed (e.g. a P100
  // next to a CPU substrate) — the pair scheduler normalizes by speed().
  explicit SimCluster(std::vector<ExecutorModel> models);

  // n identical devices on one node.
  static SimCluster Homogeneous(int n, const ExecutorModel& model);

  // nodes * devices_per_node identical devices split contiguously across
  // `nodes` SimNodes, with the given link models (defaults: NVLink-class
  // within a node, 100 Gb/s network between nodes).
  static SimCluster HomogeneousNodes(
      int nodes, int devices_per_node, const ExecutorModel& model,
      dist::LinkModel intra = dist::NvlinkClassLink(),
      dist::LinkModel inter = dist::NetworkClassLink());

  SimCluster(SimCluster&&) noexcept = default;
  SimCluster& operator=(SimCluster&&) noexcept = default;

  int num_devices() const { return static_cast<int>(devices_.size()); }

  // --- Node topology --------------------------------------------------------

  const dist::ClusterTopology& topology() const { return topology_; }

  // Replaces the topology; it must validate and map exactly this cluster's
  // devices.
  Status SetTopology(dist::ClusterTopology topology);

  int num_nodes() const { return topology_.num_nodes; }
  int node_of(int device) const { return topology_.node_of(device); }

  SimExecutor* device(int d) { return devices_[static_cast<size_t>(d)].get(); }
  const SimExecutor* device(int d) const {
    return devices_[static_cast<size_t>(d)].get();
  }
  const ExecutorModel& model(int d) const { return device(d)->model(); }

  // Relative throughput of device d (compute_units * flops_per_unit), used
  // by the pair scheduler to normalize load across heterogeneous devices.
  double speed(int d) const;
  std::vector<double> speeds() const;

  // Attaches `recorder` to every device with a lane band per device, or
  // detaches (nullptr). The recorder must outlive the attachment.
  void SetSpanRecorder(obs::SpanRecorder* recorder,
                       int lane_band = kClusterLaneBand);

 private:
  std::vector<std::unique_ptr<SimExecutor>> devices_;
  dist::ClusterTopology topology_;
};

}  // namespace gmpsvm::cluster

#endif  // GMPSVM_CLUSTER_CLUSTER_H_
