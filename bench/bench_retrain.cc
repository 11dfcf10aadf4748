// Warm-start retraining vs cold retraining after a one-class dataset delta.
//
// A delta that only adds rows to one class of a k-class problem invalidates
// k-1 of the k(k-1)/2 pairwise SVMs; the warm path re-solves only those,
// seeded from the previous alphas, and carries the rest byte for byte. At
// k=16 that is 15 retrained vs 105 carried pairs, so the warm retrain must
// cut the simulated makespan by at least 2x against a cold full train on the
// same cluster — this bench enforces the floor (exit 1 on regression) and
// counter-verifies that every carried pair's checkpoint serializes
// byte-identically to the pre-delta model's.
//
// --json output lands one row per path ("GMP-SVM cold-retrain" /
// "GMP-SVM warm-retrain"); CI uploads it as BENCH_retrain.json.

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "cluster/cluster_trainer.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/model_io.h"
#include "online/delta.h"
#include "online/warm_retrain.h"

using namespace gmpsvm;         // NOLINT
using namespace gmpsvm::bench;  // NOLINT

namespace {

// A one-class delta: new rows for class 0 cloned (with a deterministic
// nudge) from existing class-0 rows, so only the 15 pairs touching class 0
// need retraining.
online::DatasetDelta OneClassDelta(const Dataset& base, int n_added) {
  online::DatasetDelta delta;
  delta.base_fingerprint = online::DatasetFingerprint(base);
  delta.num_classes = base.num_classes();
  const std::vector<int32_t>& rows = base.ClassRows(0);
  for (int i = 0; i < n_added; ++i) {
    const int64_t row = rows[static_cast<size_t>(i) % rows.size()];
    online::DeltaOp op;
    op.kind = online::DeltaOp::Kind::kAdd;
    op.label = 0;
    const auto indices = base.features().RowIndices(row);
    const auto values = base.features().RowValues(row);
    op.indices.assign(indices.begin(), indices.end());
    op.values.assign(values.begin(), values.end());
    for (double& v : op.values) v *= 1.0 + 1e-3 * (i + 1);
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);

  SyntheticSpec spec;
  spec.name = "RETRAIN-K16";
  spec.num_classes = 16;
  spec.cardinality = 16 * 40;
  spec.dim = 24;
  spec.density = 1.0;
  spec.separation = 2.5;
  spec.gamma = 0.3;
  spec.seed = 42;

  Dataset base = ValueOrDie(GenerateSynthetic(spec));
  const online::DatasetDelta delta = OneClassDelta(base, 16);
  Dataset drifted = ValueOrDie(online::ApplyDelta(base, delta));
  const std::vector<int> affected = online::AffectedClasses(delta);

  MpTrainOptions train = GmpOptionsFor(spec);
  ExecutorModel device_model =
      ScaleModel(ExecutorModel::TeslaP100(), WorldScale(spec));
  device_model.host_threads = args.host_threads;

  std::printf(
      "RETRAIN: warm-start vs cold after a one-class delta "
      "(k=%d, %lld rows + %zu added, %d device(s))\n\n",
      spec.num_classes, static_cast<long long>(base.size()),
      delta.ops.size(), args.devices);

  // Cold path: full train of the drifted dataset from scratch.
  cluster::SimCluster cold_cluster =
      cluster::SimCluster::Homogeneous(args.devices, device_model);
  cluster::ClusterTrainOptions cold_options;
  cold_options.train = train;
  cluster::ClusterTrainReport cold_report;
  const Stopwatch cold_watch;
  MpSvmModel cold_model = ValueOrDie(cluster::ClusterTrainer(cold_options)
                                         .Train(drifted, &cold_cluster,
                                                &cold_report));
  const double cold_wall = cold_watch.ElapsedSeconds();

  // Warm path: the pre-delta model's checkpoints seed the affected pairs.
  cluster::SimCluster warm_cluster =
      cluster::SimCluster::Homogeneous(args.devices, device_model);
  cluster::ClusterTrainOptions base_options;
  base_options.train = train;
  MpSvmModel previous_model = ValueOrDie(cluster::ClusterTrainer(base_options)
                                             .Train(base, &warm_cluster,
                                                    nullptr));
  const std::vector<PairCheckpoint> previous =
      online::CheckpointsFromModel(previous_model);

  online::WarmRetrainOptions warm_options;
  warm_options.train = train;
  online::WarmRetrainReport warm_report;
  const Stopwatch warm_watch;
  MpSvmModel warm_model = ValueOrDie(
      online::WarmRetrain(drifted, previous, affected, warm_options,
                          &warm_cluster, &warm_report));
  const double warm_wall = warm_watch.ElapsedSeconds();

  // Counter-verified byte-identity: every carried pair's checkpoint must
  // serialize exactly as it did in the pre-delta model.
  const std::vector<PairCheckpoint> after =
      online::CheckpointsFromModel(warm_model);
  const auto pairs = drifted.ClassPairs();
  int64_t carried_identical = 0;
  int64_t carried_total = 0;
  {
    std::vector<bool> retrained(pairs.size(), false);
    for (size_t p : online::AffectedPairIndices(drifted, affected, previous)) {
      retrained[p] = true;
    }
    for (size_t p = 0; p < pairs.size(); ++p) {
      if (retrained[p]) continue;
      ++carried_total;
      if (SerializePairCheckpoint(after[p]) ==
          SerializePairCheckpoint(previous[p])) {
        ++carried_identical;
      }
    }
  }

  const double cold_sim = cold_report.makespan_sim_seconds;
  const double warm_sim = warm_report.makespan_sim_seconds;
  const double cut = warm_sim > 0.0 ? cold_sim / warm_sim : 0.0;

  TablePrinter table(
      {"Path", "Pairs solved", "Makespan (sim)", "Cut", "Wall"});
  table.AddRow({"cold full train",
                StrPrintf("%zu", pairs.size()),
                Sec(cold_sim), "1.0x", Sec(cold_wall)});
  table.AddRow({"warm retrain",
                StrPrintf("%lld/%zu",
                          static_cast<long long>(warm_report.pairs_retrained),
                          pairs.size()),
                Sec(warm_sim), Speedup(cut), Sec(warm_wall)});
  table.Print();
  std::printf(
      "\nCarried pairs byte-identical to the pre-delta model: %lld/%lld\n"
      "Warm-seeded rows: %lld\n",
      static_cast<long long>(carried_identical),
      static_cast<long long>(carried_total),
      static_cast<long long>(warm_report.warm_seeded_rows));

  std::vector<JsonRow> json_rows;
  for (const auto& [impl, sim, wall] :
       {std::tuple<const char*, double, double>{"GMP-SVM cold-retrain",
                                                cold_sim, cold_wall},
        std::tuple<const char*, double, double>{"GMP-SVM warm-retrain",
                                                warm_sim, warm_wall}}) {
    JsonRow row;
    row.dataset = spec.name;
    row.impl = impl;
    row.model = device_model.name;
    row.train_sim = sim;
    row.train_wall = wall;
    json_rows.push_back(std::move(row));
  }
  WriteBenchJson(args, "retrain", json_rows);
  DumpObservability(args);

  bool ok = true;
  if (carried_identical != carried_total) {
    std::printf("FAIL: %lld carried pair(s) changed bytes\n",
                static_cast<long long>(carried_total - carried_identical));
    ok = false;
  }
  if (cut < 2.0) {
    std::printf("FAIL: warm retrain cut %.2fx < required 2.0x\n", cut);
    ok = false;
  }
  if (ok) std::printf("OK: %.1fx sim-time cut, all carried pairs intact\n", cut);
  return ok ? 0 : 1;
}
