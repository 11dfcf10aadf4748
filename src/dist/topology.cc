#include "dist/topology.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace gmpsvm::dist {

double LinkModel::TransferSeconds(double bytes) const {
  if (bytes <= 0.0) return latency_seconds;
  return latency_seconds + bytes / bandwidth_bytes_per_sec;
}

Status LinkModel::Validate(const char* what) const {
  if (!(bandwidth_bytes_per_sec > 0.0)) {
    return Status::InvalidArgument(std::string(what) +
                                   ": bandwidth_bytes_per_sec must be > 0");
  }
  if (latency_seconds < 0.0) {
    return Status::InvalidArgument(std::string(what) +
                                   ": latency_seconds must be >= 0");
  }
  return Status::OK();
}

LinkModel NvlinkClassLink() {
  LinkModel link;
  link.bandwidth_bytes_per_sec = 300e9;
  link.latency_seconds = 1e-6;
  return link;
}

LinkModel NetworkClassLink() {
  LinkModel link;
  link.bandwidth_bytes_per_sec = 12.5e9;
  link.latency_seconds = 5e-6;
  return link;
}

ClusterTopology ClusterTopology::SingleNode(int num_devices) {
  ClusterTopology topo;
  topo.num_nodes = 1;
  topo.node_of_device.assign(static_cast<size_t>(std::max(num_devices, 0)), 0);
  return topo;
}

ClusterTopology ClusterTopology::Contiguous(int num_nodes, int num_devices,
                                            LinkModel intra, LinkModel inter) {
  GMP_DCHECK(num_nodes >= 1);
  GMP_DCHECK(num_devices >= num_nodes);
  ClusterTopology topo;
  topo.num_nodes = num_nodes;
  topo.intra_node = intra;
  topo.inter_node = inter;
  topo.node_of_device.reserve(static_cast<size_t>(num_devices));
  const int base = num_devices / num_nodes;
  const int extra = num_devices % num_nodes;
  for (int node = 0; node < num_nodes; ++node) {
    const int span = base + (node < extra ? 1 : 0);
    for (int i = 0; i < span; ++i) topo.node_of_device.push_back(node);
  }
  return topo;
}

std::vector<SimNode> ClusterTopology::Nodes() const {
  std::vector<SimNode> nodes(static_cast<size_t>(num_nodes));
  for (int node = 0; node < num_nodes; ++node) {
    nodes[static_cast<size_t>(node)].node = node;
  }
  for (int d = 0; d < num_devices(); ++d) {
    nodes[static_cast<size_t>(node_of(d))].devices.push_back(d);
  }
  return nodes;
}

Status ClusterTopology::Validate() const {
  if (num_nodes < 1) {
    return Status::InvalidArgument("ClusterTopology: num_nodes must be >= 1");
  }
  if (node_of_device.empty()) {
    return Status::InvalidArgument("ClusterTopology: no devices mapped");
  }
  for (int node : node_of_device) {
    if (node < 0 || node >= num_nodes) {
      return Status::InvalidArgument(
          "ClusterTopology: device mapped to node outside [0, num_nodes)");
    }
  }
  Status st = intra_node.Validate("intra_node link");
  if (!st.ok()) return st;
  return inter_node.Validate("inter_node link");
}

AllreduceCost EstimateAllreduce(const ClusterTopology& topology,
                                std::span<const int> devices,
                                double payload_bytes) {
  AllreduceCost cost;
  const int s = static_cast<int>(devices.size());
  if (s <= 1) return cost;
  for (int stride = 1; stride < s; stride <<= 1) {
    ++cost.rounds;
    double round_seconds = 0.0;
    for (int i = 0; i < s; ++i) {
      const int partner = i ^ stride;
      if (partner <= i || partner >= s) continue;  // each active pair once
      const LinkModel& link =
          topology.LinkBetween(devices[static_cast<size_t>(i)],
                               devices[static_cast<size_t>(partner)]);
      round_seconds = std::max(round_seconds, link.TransferSeconds(payload_bytes));
      const double moved = 2.0 * payload_bytes;  // one payload each direction
      if (topology.SameNode(devices[static_cast<size_t>(i)],
                            devices[static_cast<size_t>(partner)])) {
        cost.intra_node_bytes += moved;
      } else {
        cost.inter_node_bytes += moved;
      }
    }
    cost.seconds += round_seconds;
  }
  return cost;
}

void DistStats::Merge(const DistStats& other) {
  allreduces += other.allreduces;
  allreduce_rounds += other.allreduce_rounds;
  merge_seconds += other.merge_seconds;
  intra_node_bytes += other.intra_node_bytes;
  inter_node_bytes += other.inter_node_bytes;
}

std::vector<std::pair<int64_t, int64_t>> ContiguousShardRanges(int64_t n,
                                                               int num_shards) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  if (num_shards < 1) return ranges;
  ranges.reserve(static_cast<size_t>(num_shards));
  const int64_t s = num_shards;
  for (int64_t j = 0; j < s; ++j) {
    ranges.emplace_back(j * n / s, (j + 1) * n / s);
  }
  return ranges;
}

void AllreduceBarrier(std::span<const Shard> shards,
                      std::span<const int> devices,
                      const ClusterTopology& topology, double payload_bytes,
                      const char* label, DistStats* dist_stats) {
  double t = 0.0;
  for (const Shard& shard : shards) {
    t = std::max(t, shard.executor->StreamTime(shard.stream));
  }
  const AllreduceCost cost = EstimateAllreduce(topology, devices, payload_bytes);
  for (const Shard& shard : shards) {
    const double dt =
        t + cost.seconds - shard.executor->StreamTime(shard.stream);
    if (dt > 0.0) shard.executor->AdvanceStream(shard.stream, dt, label);
  }
  if (dist_stats != nullptr) {
    ++dist_stats->allreduces;
    dist_stats->allreduce_rounds += cost.rounds;
    dist_stats->merge_seconds += cost.seconds;
    dist_stats->intra_node_bytes += cost.intra_node_bytes;
    dist_stats->inter_node_bytes += cost.inter_node_bytes;
  }
}

}  // namespace gmpsvm::dist
