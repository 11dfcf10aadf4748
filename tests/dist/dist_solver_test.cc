// Distributed (intra-pair sharded) SMO: BatchSmoSolver's byte-identity
// contract between a shard group and one device — solution, f indicators,
// and SolverStats counters — for any shard count and placement, clean and
// under a chaos fault plan on the coordinator. Plus unit coverage for the
// network cost model (topology.h): link pricing, recursive-doubling
// allreduce rounds, and intra/inter byte classification.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "../test_util.h"
#include "cluster/cluster.h"
#include "dist/topology.h"
#include "fault/fault_injector.h"
#include "solver/batch_smo_solver.h"

namespace gmpsvm::dist {
namespace {

using ::gmpsvm::testing::BinaryBlobs;
using ::gmpsvm::testing::MakeBinaryBlobs;
using ::gmpsvm::testing::MakeProblem;

KernelParams Gaussian(double gamma) {
  KernelParams p;
  p.type = KernelType::kGaussian;
  p.gamma = gamma;
  return p;
}

BatchSmoOptions SmallOptions(int ws = 32, int q = 16) {
  BatchSmoOptions opts;
  opts.working_set.ws_size = ws;
  opts.working_set.q = q;
  return opts;
}

// --- Topology unit tests ----------------------------------------------------

TEST(ClusterTopologyTest, ContiguousSpreadsRemainderToEarlyNodes) {
  const ClusterTopology topo = ClusterTopology::Contiguous(
      3, 8, NvlinkClassLink(), NetworkClassLink());
  ASSERT_TRUE(topo.Validate().ok());
  // 8 devices over 3 nodes: 3 + 3 + 2.
  EXPECT_EQ(topo.node_of_device,
            (std::vector<int>{0, 0, 0, 1, 1, 1, 2, 2}));
  EXPECT_TRUE(topo.SameNode(0, 2));
  EXPECT_FALSE(topo.SameNode(2, 3));
  EXPECT_EQ(topo.LinkBetween(0, 1).bandwidth_bytes_per_sec,
            NvlinkClassLink().bandwidth_bytes_per_sec);
  EXPECT_EQ(topo.LinkBetween(0, 7).bandwidth_bytes_per_sec,
            NetworkClassLink().bandwidth_bytes_per_sec);
}

TEST(ClusterTopologyTest, ValidateRejectsBadShapes) {
  ClusterTopology topo;
  topo.num_nodes = 0;
  EXPECT_FALSE(topo.Validate().ok());
  topo.num_nodes = 2;
  EXPECT_FALSE(topo.Validate().ok());  // no devices
  topo.node_of_device = {0, 5};
  EXPECT_FALSE(topo.Validate().ok());  // node out of range
  topo.node_of_device = {0, 1};
  ASSERT_TRUE(topo.Validate().ok());
  topo.intra_node.bandwidth_bytes_per_sec = 0.0;
  EXPECT_FALSE(topo.Validate().ok());
}

TEST(EstimateAllreduceTest, RecursiveDoublingRoundsAndByteClasses) {
  // 2 nodes x 2 devices: one all-intra round (0<->1, 2<->3 under stride 1)
  // and one all-inter round (0<->2, 1<->3 under stride 2).
  const ClusterTopology topo = ClusterTopology::Contiguous(
      2, 4, NvlinkClassLink(), NetworkClassLink());
  const std::vector<int> group = {0, 1, 2, 3};
  const double payload = 1e6;
  const AllreduceCost cost = EstimateAllreduce(topo, group, payload);
  EXPECT_EQ(cost.rounds, 2);
  // Two pairs per round, 2 * payload each.
  EXPECT_DOUBLE_EQ(cost.intra_node_bytes, 4.0 * payload);
  EXPECT_DOUBLE_EQ(cost.inter_node_bytes, 4.0 * payload);
  // Each round is priced at its slowest link.
  EXPECT_DOUBLE_EQ(cost.seconds,
                   NvlinkClassLink().TransferSeconds(payload) +
                       NetworkClassLink().TransferSeconds(payload));
  // Degenerate groups cost nothing.
  const std::vector<int> solo = {1};
  EXPECT_EQ(EstimateAllreduce(topo, solo, payload).rounds, 0);
}

TEST(ContiguousShardRangesTest, CoversWithoutOverlapForAwkwardSplits) {
  for (int64_t n : {1, 2, 7, 103}) {
    for (int shards : {1, 2, 3, 4}) {
      const auto ranges = ContiguousShardRanges(n, shards);
      ASSERT_EQ(static_cast<int>(ranges.size()), shards);
      EXPECT_EQ(ranges.front().first, 0);
      EXPECT_EQ(ranges.back().second, n);
      for (size_t j = 1; j < ranges.size(); ++j) {
        EXPECT_EQ(ranges[j].first, ranges[j - 1].second);
      }
    }
  }
}

// --- Byte-identity against the single-device solver -------------------------

struct Solved {
  BinarySolution solution;
  SolverStats stats;
  DistStats dist;
};

Solved SolveReference(const BinaryProblem& p, const BatchSmoOptions& opts,
                      fault::FaultInjector* injector) {
  KernelComputer kc(p.data, p.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  exec.SetFaultInjector(injector);
  Solved out;
  out.solution = ValueOrDie(
      BatchSmoSolver(opts).Solve(p, kc, {&exec, kDefaultStream}, &out.stats));
  return out;
}

Solved SolveSharded(const BinaryProblem& p, const BatchSmoOptions& opts,
                    const ClusterTopology& topo, int num_shards,
                    fault::FaultInjector* injector) {
  KernelComputer kc(p.data, p.kernel);
  cluster::SimCluster devices =
      cluster::SimCluster::Homogeneous(topo.num_devices(),
                                       ExecutorModel::TeslaP100());
  const auto ranges = ContiguousShardRanges(p.n(), num_shards);
  std::vector<Shard> shards(static_cast<size_t>(num_shards));
  for (int j = 0; j < num_shards; ++j) {
    // Spread shards over the topology's devices round-robin so multi-node
    // placements are exercised whenever the topology has several nodes.
    const int d = j % topo.num_devices();
    shards[static_cast<size_t>(j)] = Shard{devices.device(d), kDefaultStream,
                                           d, ranges[static_cast<size_t>(j)].first,
                                           ranges[static_cast<size_t>(j)].second};
  }
  shards[0].executor->SetFaultInjector(injector);
  Solved out;
  out.solution = ValueOrDie(BatchSmoSolver(opts).Solve(
      p, kc, {shards, &topo, &out.dist}, &out.stats));
  return out;
}

void ExpectBitwiseEqual(const Solved& a, const Solved& b,
                        const std::string& what) {
  ASSERT_EQ(a.solution.alpha.size(), b.solution.alpha.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.solution.alpha.data(), b.solution.alpha.data(),
                           a.solution.alpha.size() * sizeof(double)))
      << what;
  ASSERT_EQ(a.solution.f.size(), b.solution.f.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.solution.f.data(), b.solution.f.data(),
                           a.solution.f.size() * sizeof(double)))
      << what;
  EXPECT_EQ(a.solution.bias, b.solution.bias) << what;
  EXPECT_EQ(a.solution.objective, b.solution.objective) << what;
  EXPECT_EQ(a.stats.iterations, b.stats.iterations) << what;
  EXPECT_EQ(a.stats.outer_rounds, b.stats.outer_rounds) << what;
  EXPECT_EQ(a.stats.kernel_rows_computed, b.stats.kernel_rows_computed) << what;
  EXPECT_EQ(a.stats.kernel_rows_reused, b.stats.kernel_rows_reused) << what;
  EXPECT_EQ(a.stats.kernel_row_retries, b.stats.kernel_row_retries) << what;
  EXPECT_EQ(a.stats.alloc_retries, b.stats.alloc_retries) << what;
  EXPECT_EQ(a.stats.rows_poisoned, b.stats.rows_poisoned) << what;
}

TEST(DistSmoSolverTest, CleanSolveBitwiseMatchesSingleDevice) {
  BinaryBlobs blobs = MakeBinaryBlobs(45, 5, 1.4, 17, /*noise=*/1.2);
  BinaryProblem p = MakeProblem(blobs, 2.0, Gaussian(0.3));
  const BatchSmoOptions opts = SmallOptions();
  const Solved ref = SolveReference(p, opts, nullptr);
  for (int shards : {1, 2, 3, 4}) {
    const ClusterTopology topo = ClusterTopology::Contiguous(
        2, 4, NvlinkClassLink(), NetworkClassLink());
    const Solved sharded = SolveSharded(p, opts, topo, shards, nullptr);
    ExpectBitwiseEqual(ref, sharded, "shards=" + std::to_string(shards));
    if (shards >= 2) {
      EXPECT_GT(sharded.dist.allreduces, 0) << shards;
      EXPECT_GT(sharded.dist.merge_seconds, 0.0) << shards;
    }
  }
}

TEST(DistSmoSolverTest, PlacementChangesOnlyTheLinkTraffic) {
  // Same shard count on a single node vs across two nodes: identical
  // numbers, different byte classification.
  BinaryBlobs blobs = MakeBinaryBlobs(30, 4, 1.5, 23);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.4));
  const BatchSmoOptions opts = SmallOptions();
  const ClusterTopology one_node = ClusterTopology::SingleNode(2);
  const ClusterTopology two_nodes = ClusterTopology::Contiguous(
      2, 2, NvlinkClassLink(), NetworkClassLink());
  const Solved local = SolveSharded(p, opts, one_node, 2, nullptr);
  const Solved spread = SolveSharded(p, opts, two_nodes, 2, nullptr);
  ExpectBitwiseEqual(local, spread, "one node vs two");
  EXPECT_GT(local.dist.intra_node_bytes, 0.0);
  EXPECT_EQ(local.dist.inter_node_bytes, 0.0);
  EXPECT_EQ(spread.dist.intra_node_bytes, 0.0);
  EXPECT_GT(spread.dist.inter_node_bytes, 0.0);
  // The slower inter-node link makes the same merges cost more sim time.
  EXPECT_GT(spread.dist.merge_seconds, local.dist.merge_seconds);
}

TEST(DistSmoSolverTest, ChaosOnCoordinatorBitwiseMatchesSingleDevice) {
  // The same chaos plan attached to the single device and to the shard
  // coordinator: identical fault consult sequence, identical recovery,
  // identical counters (retries included).
  BinaryBlobs blobs = MakeBinaryBlobs(40, 4, 1.2, 31, /*noise=*/1.4);
  BinaryProblem p = MakeProblem(blobs, 2.0, Gaussian(0.3));
  BatchSmoOptions opts = SmallOptions();
  fault::FaultPlan plan = fault::FaultPlan::Chaos(11);
  plan.device_loss_prob = 0.0;  // device/node loss is the trainer's concern
  plan.node_loss_prob = 0.0;

  fault::FaultInjector ref_injector(plan, nullptr);
  const Solved ref = SolveReference(p, opts, &ref_injector);
  ASSERT_GT(ref.stats.kernel_row_retries + ref.stats.alloc_retries +
                ref.stats.rows_poisoned,
            0)
      << "chaos plan injected nothing; the parity check would be vacuous";

  for (int shards : {2, 4}) {
    const ClusterTopology topo = ClusterTopology::Contiguous(
        2, 4, NvlinkClassLink(), NetworkClassLink());
    fault::FaultInjector injector(plan, nullptr);
    const Solved sharded = SolveSharded(p, opts, topo, shards, &injector);
    ExpectBitwiseEqual(ref, sharded, "chaos shards=" + std::to_string(shards));
  }
}

TEST(DistSmoSolverTest, RejectsInjectorOnSecondaryShard) {
  BinaryBlobs blobs = MakeBinaryBlobs(20, 3, 2.0, 5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  const ClusterTopology topo = ClusterTopology::SingleNode(2);
  cluster::SimCluster devices =
      cluster::SimCluster::Homogeneous(2, ExecutorModel::TeslaP100());
  fault::FaultPlan plan = fault::FaultPlan::Chaos(3);
  fault::FaultInjector injector(plan, nullptr);
  devices.device(1)->SetFaultInjector(&injector);
  const auto ranges = ContiguousShardRanges(p.n(), 2);
  std::vector<Shard> shards = {
      Shard{devices.device(0), kDefaultStream, 0, ranges[0].first,
            ranges[0].second},
      Shard{devices.device(1), kDefaultStream, 1, ranges[1].first,
            ranges[1].second}};
  auto result = BatchSmoSolver(SmallOptions())
                    .Solve(p, kc, {shards, &topo, nullptr}, nullptr);
  EXPECT_FALSE(result.ok());
}

TEST(DistSmoSolverTest, RejectsNonCoveringShards) {
  BinaryBlobs blobs = MakeBinaryBlobs(20, 3, 2.0, 5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  const ClusterTopology topo = ClusterTopology::SingleNode(2);
  cluster::SimCluster devices =
      cluster::SimCluster::Homogeneous(2, ExecutorModel::TeslaP100());
  std::vector<Shard> shards = {
      Shard{devices.device(0), kDefaultStream, 0, 0, p.n() - 1}};  // gap
  auto result = BatchSmoSolver(SmallOptions())
                    .Solve(p, kc, {shards, &topo, nullptr}, nullptr);
  EXPECT_FALSE(result.ok());
}

TEST(DistSmoSolverTest, OneShardPaysNoMerges) {
  BinaryBlobs blobs = MakeBinaryBlobs(20, 3, 2.0, 5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  const ClusterTopology topo = ClusterTopology::SingleNode(2);
  const Solved one = SolveSharded(p, SmallOptions(), topo, 1, nullptr);
  EXPECT_EQ(one.dist.allreduces, 0);
  EXPECT_EQ(one.dist.merge_seconds, 0.0);
}

TEST(DistSmoSolverTest, RejectsWarmSeedOnSeveralShards) {
  BinaryBlobs blobs = MakeBinaryBlobs(20, 3, 2.0, 5);
  BinaryProblem p = MakeProblem(blobs, 1.0, Gaussian(0.5));
  KernelComputer kc(p.data, p.kernel);
  const ClusterTopology topo = ClusterTopology::SingleNode(2);
  cluster::SimCluster devices =
      cluster::SimCluster::Homogeneous(2, ExecutorModel::TeslaP100());
  const auto ranges = ContiguousShardRanges(p.n(), 2);
  std::vector<Shard> shards = {
      Shard{devices.device(0), kDefaultStream, 0, ranges[0].first,
            ranges[0].second},
      Shard{devices.device(1), kDefaultStream, 1, ranges[1].first,
            ranges[1].second}};
  const std::vector<double> seed(static_cast<size_t>(p.n()), 0.0);
  auto result = BatchSmoSolver(SmallOptions())
                    .Solve(p, kc, {shards, &topo, nullptr}, nullptr, seed);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace gmpsvm::dist
