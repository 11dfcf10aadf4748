#include "cluster/pair_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

namespace gmpsvm::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Crude merge-volume model for the shard decision: a sharded solve performs
// a handful of small allreduces per outer round, and outer rounds scale with
// the pair's row count over the working-set drain rate. The constants only
// steer the whole-vs-sharded choice; actual merge time is charged exactly by
// the sharded solve's merges (dist::AllreduceBarrier).
constexpr double kRowsPerMergeRound = 256.0;
constexpr double kMergePayloadBytes = 32.0 * 1024.0;

double SpeedOf(const std::vector<double>& speeds, size_t d) {
  return speeds[d] > 0.0 ? speeds[d] : 1.0;
}

// Estimated seconds of allreduce traffic for one sharded solve of an n-row
// pair across `devices` under `topology`.
double EstimateMergeSeconds(const dist::ClusterTopology& topology,
                            const std::vector<int>& devices, double n_rows) {
  const double rounds = std::ceil(n_rows / kRowsPerMergeRound);
  const dist::AllreduceCost cost = dist::EstimateAllreduce(
      topology, devices, static_cast<int64_t>(kMergePayloadBytes));
  return rounds * cost.seconds;
}

}  // namespace

double EstimatePairCost(const Dataset& dataset, int s, int t) {
  const double n = static_cast<double>(dataset.ClassRows(s).size() +
                                       dataset.ClassRows(t).size());
  return n * n * (static_cast<double>(dataset.dim()) + 16.0);
}

PairAssignment SchedulePairs(const Dataset& dataset,
                             const std::vector<size_t>& pair_indices,
                             const std::vector<double>& device_speeds,
                             std::vector<double> initial_load,
                             const ScheduleOptions& options) {
  const size_t n_devices = device_speeds.size();
  PairAssignment out;
  out.device_pairs.resize(n_devices);
  out.device_load = std::move(initial_load);
  out.device_load.resize(n_devices, 0.0);
  if (n_devices == 0 || pair_indices.empty()) return out;

  const std::vector<std::pair<int, int>> pairs = dataset.ClassPairs();

  struct Ranked {
    size_t pair;
    double cost;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(pair_indices.size());
  for (size_t p : pair_indices) {
    ranked.push_back(
        {p, EstimatePairCost(dataset, pairs[p].first, pairs[p].second)});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.pair < b.pair;
  });

  // Classes whose kernel blocks each device would hold given the pairs
  // assigned so far.
  std::vector<std::set<int>> resident(n_devices);

  // Devices eligible for new work (a +inf initial load marks a lost device).
  std::vector<size_t> usable;
  for (size_t d = 0; d < n_devices; ++d) {
    if (out.device_load[d] != kInf) usable.push_back(d);
  }

  // Oversize threshold: cost on the fastest usable device vs the perfectly
  // balanced mean load.
  double total_cost = 0.0;
  for (const Ranked& r : ranked) total_cost += r.cost;
  double total_speed = 0.0;
  double max_speed = 1.0;
  for (size_t d : usable) {
    total_speed += SpeedOf(device_speeds, d);
    max_speed = std::max(max_speed, SpeedOf(device_speeds, d));
  }
  const double mean_load = total_speed > 0.0 ? total_cost / total_speed : 0.0;

  const bool may_shard = options.max_shards_per_pair > 1 &&
                         options.topology != nullptr && usable.size() >= 2 &&
                         options.topology->num_devices() >=
                             static_cast<int>(n_devices);

  // Picks the `count` least-loaded devices from `from` (ties on the lowest
  // index; `from` is ascending, so a stable sort by load suffices).
  const auto least_loaded = [&](const std::vector<size_t>& from, size_t count) {
    std::vector<size_t> group = from;
    std::stable_sort(group.begin(), group.end(), [&](size_t a, size_t b) {
      return out.device_load[a] < out.device_load[b];
    });
    group.resize(count);
    return group;
  };

  for (const Ranked& r : ranked) {
    const int s = pairs[r.pair].first;
    const int t = pairs[r.pair].second;

    // Whole-pair LPT placement candidate.
    size_t best = 0;
    double best_load = kInf;
    for (size_t d = 0; d < n_devices; ++d) {
      const double speed = SpeedOf(device_speeds, d);
      const int shared = static_cast<int>(resident[d].count(s)) +
                         static_cast<int>(resident[d].count(t));
      const double effective =
          r.cost * (1.0 - options.affinity_discount * shared);
      const double load = out.device_load[d] + effective / speed;
      // Strict < keeps ties on the lowest device index.
      if (load < best_load) {
        best_load = load;
        best = d;
      }
    }

    // Intra-pair sharding candidate, when the pair is oversized: the
    // globally least-loaded S usable devices, and the least-loaded S inside
    // each node that has that many — whichever group's makespan contribution
    // (max member load + merge estimate) is lowest. Whole-pair placement
    // still wins unless the sharded score beats it strictly.
    const double n_rows = static_cast<double>(dataset.ClassRows(s).size() +
                                              dataset.ClassRows(t).size());
    const bool oversized =
        r.cost / max_speed > options.shard_oversize_factor * mean_load;
    if (may_shard && oversized && n_rows >= 2.0) {
      const size_t want = std::min<size_t>(
          {static_cast<size_t>(options.max_shards_per_pair), usable.size(),
           static_cast<size_t>(n_rows)});
      std::vector<std::vector<size_t>> candidates;
      candidates.push_back(least_loaded(usable, want));
      for (const dist::SimNode& node : options.topology->Nodes()) {
        std::vector<size_t> on_node;
        for (int d : node.devices) {
          const size_t ds = static_cast<size_t>(d);
          if (ds < n_devices && out.device_load[ds] != kInf) {
            on_node.push_back(ds);
          }
        }
        if (on_node.size() >= want) {
          candidates.push_back(least_loaded(on_node, want));
        }
      }

      std::vector<size_t> best_group;
      double best_score = kInf;
      double best_merge = 0.0;
      for (const std::vector<size_t>& group : candidates) {
        std::vector<int> group_devices(group.begin(), group.end());
        const double merge =
            EstimateMergeSeconds(*options.topology, group_devices, n_rows);
        double score = 0.0;
        for (size_t d : group) {
          const double slice =
              r.cost / static_cast<double>(group.size()) /
              SpeedOf(device_speeds, d);
          score = std::max(score, out.device_load[d] + slice + merge);
        }
        // Strict < keeps ties on the earlier candidate (global group first,
        // then nodes in index order).
        if (score < best_score) {
          best_score = score;
          best_group = group;
          best_merge = merge;
        }
      }

      // factor == 0 forces the shard decision (the oversize test already
      // passed trivially); otherwise sharding must beat whole placement.
      const bool forced = options.shard_oversize_factor == 0.0;
      if ((best_score < best_load || forced) && !best_group.empty()) {
        ShardedPair sp;
        sp.pair = r.pair;
        for (size_t d : best_group) {
          sp.devices.push_back(static_cast<int>(d));
          out.device_load[d] +=
              r.cost / static_cast<double>(best_group.size()) /
                  SpeedOf(device_speeds, d) +
              best_merge;
          resident[d].insert(s);
          resident[d].insert(t);
        }
        out.sharded_pairs.push_back(std::move(sp));
        continue;
      }
    }

    out.device_pairs[best].push_back(r.pair);
    out.device_load[best] = best_load;
    resident[best].insert(s);
    resident[best].insert(t);
  }

  for (std::vector<size_t>& list : out.device_pairs) {
    std::sort(list.begin(), list.end());
  }
  std::sort(out.sharded_pairs.begin(), out.sharded_pairs.end(),
            [](const ShardedPair& a, const ShardedPair& b) {
              return a.pair < b.pair;
            });
  return out;
}

}  // namespace gmpsvm::cluster
