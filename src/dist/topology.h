// Simulated multi-node cluster topology and the network cost model.
//
// A ClusterTopology groups the cluster's flat device list into SimNodes and
// prices the links between devices: peers on one node talk over the
// intra-node link (NVLink/PCIe-peer class), devices on different nodes over
// the inter-node link (datacenter network class). A binary solve sharded
// across a group of devices (BatchSmoSolver on a shard group,
// solver/batch_smo_solver.h) joins its shards' streams at each merge through
// AllreduceBarrier, priced by EstimateAllreduce; the pair scheduler uses the
// same estimate to decide whether sharding a pair's instances across devices
// beats pair-level placement (docs/cost_model.md).
//
// Like the rest of the substrate this is a COST model only: merge arithmetic
// runs exactly on the host; the topology decides how much simulated time and
// link traffic each merge charges, never the numbers it produces.

#ifndef GMPSVM_DIST_TOPOLOGY_H_
#define GMPSVM_DIST_TOPOLOGY_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "device/executor.h"

namespace gmpsvm::dist {

// Bandwidth/latency of one interconnect class.
struct LinkModel {
  double bandwidth_bytes_per_sec = 12.5e9;  // ~100 Gb/s network default
  double latency_seconds = 5e-6;

  // Seconds to move `bytes` over this link: latency + bytes / bandwidth.
  double TransferSeconds(double bytes) const;

  // Rejects non-positive bandwidth and negative latency; `what` names the
  // link in the error message.
  Status Validate(const char* what) const;
};

// The default intra-node link: NVLink-class, ~300 GB/s at sub-microsecond
// latency.
LinkModel NvlinkClassLink();

// The default inter-node link: 100 Gb/s network at 5 us latency.
LinkModel NetworkClassLink();

// A named group of devices forming one simulated node.
struct SimNode {
  int node = 0;
  std::vector<int> devices;  // ascending global device indices
};

struct ClusterTopology {
  int num_nodes = 1;
  std::vector<int> node_of_device;  // device -> node
  LinkModel intra_node = NvlinkClassLink();
  LinkModel inter_node = NetworkClassLink();

  // All devices on one node (every link intra-node).
  static ClusterTopology SingleNode(int num_devices);

  // `num_devices` split contiguously across `num_nodes`; the first
  // (num_devices % num_nodes) nodes take one extra device.
  static ClusterTopology Contiguous(int num_nodes, int num_devices,
                                    LinkModel intra, LinkModel inter);

  int num_devices() const { return static_cast<int>(node_of_device.size()); }
  int node_of(int device) const {
    return node_of_device[static_cast<size_t>(device)];
  }
  bool SameNode(int a, int b) const { return node_of(a) == node_of(b); }
  const LinkModel& LinkBetween(int a, int b) const {
    return SameNode(a, b) ? intra_node : inter_node;
  }

  // The node groups in ascending node order (empty nodes included).
  std::vector<SimNode> Nodes() const;

  // Rejects an empty device map, node ids outside [0, num_nodes), and
  // invalid links.
  Status Validate() const;
};

// Cost of one allreduce across a shard group under a topology.
struct AllreduceCost {
  double seconds = 0.0;
  int rounds = 0;
  // Link traffic, split by link class. Each active pair in a round moves the
  // payload once in each direction; the totals count both directions.
  double intra_node_bytes = 0.0;
  double inter_node_bytes = 0.0;
};

// Prices a recursive-doubling allreduce of `payload_bytes` across `devices`
// (global device indices): ceil(log2(S)) rounds; in round r device i pairs
// with device i XOR 2^r (by group position), and the round takes as long as
// its slowest active link. Groups of one (or zero) devices cost nothing.
AllreduceCost EstimateAllreduce(const ClusterTopology& topology,
                                std::span<const int> devices,
                                double payload_bytes);

// One instance shard of a sharded solve. `device` is the global device index
// in the ClusterTopology; `executor`/`stream` is where the shard's work is
// charged. In a shard group, shards[0] is the coordinator.
struct Shard {
  SimExecutor* executor = nullptr;
  StreamId stream = kDefaultStream;
  int device = 0;
  int64_t begin = 0;
  int64_t end = 0;
};

// Communication accounting of one (or several merged) sharded solves.
struct DistStats {
  int64_t allreduces = 0;        // collective merges performed
  int64_t allreduce_rounds = 0;  // sum of per-merge round counts
  double merge_seconds = 0.0;    // simulated seconds spent in merges
  double intra_node_bytes = 0.0;
  double inter_node_bytes = 0.0;

  void Merge(const DistStats& other);
};

// Deterministic contiguous ranges: shard j gets [j*n/S, (j+1)*n/S).
std::vector<std::pair<int64_t, int64_t>> ContiguousShardRanges(int64_t n,
                                                               int num_shards);

// One merge of a shard group: joins every shard's stream at (latest stream
// time) + the allreduce of `payload_bytes` across `devices` (the shards'
// devices, in shard order), advancing each stream under `label`, and
// accounts the merge into `dist_stats` (may be null). A zero payload is a
// pure barrier; it still pays each round's link latency.
void AllreduceBarrier(std::span<const Shard> shards,
                      std::span<const int> devices,
                      const ClusterTopology& topology, double payload_bytes,
                      const char* label, DistStats* dist_stats);

}  // namespace gmpsvm::dist

#endif  // GMPSVM_DIST_TOPOLOGY_H_
