// Pins MpSvmPredictor's output and accounting to exact recorded values, so a
// change to the prediction loops cannot move a byte unnoticed:
//   * exact prediction at tiles of 0 (sized from the memory budget), 1, 3, 5
//     and 8 rows, with shared and with per-SVM kernel values, plus voting;
//   * the elimination cascade at tiles of 0 and 8 rows, at the default
//     ambiguity band and at band 1.0 (every row falls back to the exact
//     pipeline);
//   * one executor kept across a sequence of PredictRows and Train calls,
//     which must leave its stream count as they found it.
// Every run is made at host_threads 1 and 4 against the same pins.
//
// The 26 test rows split into full 4-row panels, 2- and 3-row partial
// panels and lone rows across the tile sizes. k = 8 on 6 feature dimensions:
// classes 6 and 7 share their centre dimension with classes 0 and 1, so the
// cascade eliminates classes on some rows (its scan then skips dead pairs)
// and falls back on others.
//
// Each run reduces to named values: hashes of the probabilities and labels,
// simulated seconds and phases, executor counters, the cascade counts, and
// the SIMD path calls and elements of the paths prediction dispatches. A
// mismatch prints every value with %a, ready to paste if a change is meant
// to move it. The probability hashes moved once, when Platt's sigmoid moved
// from libm's exp onto simd::Exp, and the cascade's SIMD counts when it
// began computing each tile's kernel block at once; nothing else did.
//
// ctest also runs this binary as predict_pin_test_nofma_libm, under a glibc
// tunable that selects glibc's exp built without FMA: no prediction path may
// depend on which libm variant the process loaded.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "../pins.h"
#include "../test_util.h"
#include "common/string_util.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "simd/simd.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::ExpectPins;
using ::gmpsvm::testing::MakeMulticlassBlobs;
using ::gmpsvm::testing::Pins;

constexpr int kClasses = 8;
constexpr int64_t kTestRows = 26;

struct Fixture {
  MpSvmModel model;
  CsrMatrix test;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    const Dataset train =
        ValueOrDie(MakeMulticlassBlobs(kClasses, 20, 6, 2.5, 17));
    const Dataset pool =
        ValueOrDie(MakeMulticlassBlobs(kClasses, 4, 6, 2.5, 1017));
    MpTrainOptions options;
    options.c = 1.0;
    options.kernel.gamma = 0.3;
    options.batch.working_set.ws_size = 32;
    options.batch.working_set.q = 16;
    options.shared_cache_bytes = 64ull << 20;
    SimExecutor exec(ExecutorModel::TeslaP100());
    auto* fx = new Fixture{
        ValueOrDie(GmpSvmTrainer(options).Train(train, &exec, nullptr)), {}};
    CsrBuilder builder(pool.features().cols());
    for (int64_t row = 0; row < kTestRows; ++row) {
      builder.AddRow(pool.features().RowIndices(row),
                     pool.features().RowValues(row));
    }
    fx->test = ValueOrDie(builder.Finish());
    return fx;
  }();
  return *fixture;
}

Pins PredictPins(const PredictOptions& options, int host_threads) {
  const Fixture& fx = SharedFixture();
  ExecutorModel device = ExecutorModel::TeslaP100();
  device.host_threads = host_threads;
  SimExecutor exec(device);
  constexpr simd::SimdPath kPaths[] = {
      simd::SimdPath::kBatchRowDots, simd::SimdPath::kScatterRowDots,
      simd::SimdPath::kKernelTransform, simd::SimdPath::kCoupling};
  simd::PathStatsSnapshot before[std::size(kPaths)];
  for (size_t i = 0; i < std::size(kPaths); ++i) {
    before[i] = simd::PathStats(kPaths[i]);
  }
  const PredictResult result =
      ValueOrDie(MpSvmPredictor(&fx.model).Predict(fx.test, &exec, options));

  Pins pins;
  pins.Doubles("probabilities", result.probabilities);
  std::string labels(result.labels.size() * sizeof(int32_t), '\0');
  std::memcpy(labels.data(), result.labels.data(), labels.size());
  pins.Bytes("labels", labels);
  pins.Real("sim_seconds", result.sim_seconds);
  pins.Phases("phase.", result.phases);

  const ExecutorCounters& c = exec.counters();
  pins.Count("exec.launches", c.launches);
  pins.Real("exec.flops", c.flops);
  pins.Real("exec.bytes_read", c.bytes_read);
  pins.Real("exec.bytes_written", c.bytes_written);
  pins.Count("exec.kernel_values_computed", c.kernel_values_computed);
  pins.Count("exec.kernel_values_reused", c.kernel_values_reused);

  pins.Count("cascade.rows", result.cascade_rows);
  pins.Count("cascade.fallback_rows", result.cascade_fallback_rows);
  pins.Count("cascade.pairs_evaluated", result.cascade_pairs_evaluated);
  pins.Count("cascade.classes_eliminated", result.cascade_classes_eliminated);

  for (size_t i = 0; i < std::size(kPaths); ++i) {
    const simd::PathStatsSnapshot stats = simd::PathStats(kPaths[i]);
    const std::string name = simd::SimdPathName(kPaths[i]);
    pins.Count("simd." + name + ".calls", stats.calls - before[i].calls);
    pins.Count("simd." + name + ".elements",
               stats.elements - before[i].elements);
  }
  return pins;
}

void ExpectRun(const PredictOptions& options, const char* expected) {
  for (int host_threads : {1, 4}) {
    SCOPED_TRACE(StrPrintf("host_threads=%d", host_threads));
    ExpectPins(expected, PredictPins(options, host_threads));
  }
}

PredictOptions Exact(int64_t tile_rows, bool share) {
  PredictOptions options;
  options.tile_rows = tile_rows;
  options.share_kernel_values = share;
  return options;
}

PredictOptions Voting(int64_t tile_rows) {
  PredictOptions options = Exact(tile_rows, /*share=*/true);
  options.decision = PredictOptions::Decision::kVoting;
  return options;
}

PredictOptions Cascade(int64_t tile_rows, double band) {
  PredictOptions options = Exact(tile_rows, /*share=*/true);
  options.cascade.mode = CascadeOptions::Mode::kEliminate;
  options.cascade.ambiguity_band = band;
  return options;
}

const char kExactSharedTile0[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.4426p+18 "
    "exec.bytes_written=0x1.074p+15 "
    "exec.flops=0x1.1d8f555555555p+17 "
    "exec.kernel_values_computed=4004 "
    "exec.kernel_values_reused=20982 "
    "exec.launches=58 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.1a4dfba81e334p-17 "
    "phase.decision_values=0x1.5c6e6aecb2f11p-13 "
    "phase.sigmoid=0x1.2b792a8e4903cp-13 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.fc85e3f1179bcp-15 "
    "simd.batch_row_dots.calls=1 "
    "simd.batch_row_dots.elements=24024 "
    "simd.coupling.calls=26 "
    "simd.coupling.elements=1664 "
    "simd.kernel_transform.calls=1 "
    "simd.kernel_transform.elements=4004 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kExactPerSvmTile0[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.4ca6p+18 "
    "exec.bytes_written=0x1.89a8p+17 "
    "exec.flops=0x1.144ad55555555p+19 "
    "exec.kernel_values_computed=24986 "
    "exec.kernel_values_reused=0 "
    "exec.launches=85 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.1a4dfba81e338p-17 "
    "phase.decision_values=0x1.6bb834e53a01p-12 "
    "phase.sigmoid=0x1.2b792a8e4903cp-13 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.519f905f13c24p-14 "
    "simd.batch_row_dots.calls=28 "
    "simd.batch_row_dots.elements=149916 "
    "simd.coupling.calls=26 "
    "simd.coupling.elements=1664 "
    "simd.kernel_transform.calls=28 "
    "simd.kernel_transform.elements=24986 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kExactSharedTile1[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.296dp+19 "
    "exec.bytes_written=0x1.074p+15 "
    "exec.flops=0x1.1d8f555555555p+17 "
    "exec.kernel_values_computed=4004 "
    "exec.kernel_values_reused=20982 "
    "exec.launches=1508 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.17c9bce99c842p-13 "
    "phase.decision_values=0x1.f4b299f0ac79cp-9 "
    "phase.sigmoid=0x1.dd7815bb53288p-9 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.5f2408536c1ap-10 "
    "simd.batch_row_dots.calls=26 "
    "simd.batch_row_dots.elements=24024 "
    "simd.coupling.calls=26 "
    "simd.coupling.elements=1664 "
    "simd.kernel_transform.calls=26 "
    "simd.kernel_transform.elements=4004 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kExactPerSvmTile1[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.f97ap+20 "
    "exec.bytes_written=0x1.89a8p+17 "
    "exec.flops=0x1.144ad55555554p+19 "
    "exec.kernel_values_computed=24986 "
    "exec.kernel_values_reused=0 "
    "exec.launches=2210 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.17c9bce99c845p-13 "
    "phase.decision_values=0x1.eaf52be68dbd8p-8 "
    "phase.sigmoid=0x1.dd7815bb53288p-9 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.c46ee5c75017fp-10 "
    "simd.batch_row_dots.calls=728 "
    "simd.batch_row_dots.elements=149916 "
    "simd.coupling.calls=26 "
    "simd.coupling.elements=1664 "
    "simd.kernel_transform.calls=728 "
    "simd.kernel_transform.elements=24986 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kExactSharedTile3[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.9ac6p+18 "
    "exec.bytes_written=0x1.074p+15 "
    "exec.flops=0x1.1d8f555555555p+17 "
    "exec.kernel_values_computed=4004 "
    "exec.kernel_values_reused=20982 "
    "exec.launches=522 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.961ed7783e1c9p-15 "
    "phase.decision_values=0x1.5f2c605b34844p-10 "
    "phase.sigmoid=0x1.4b0912ce38dd4p-10 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.f1201622d9f78p-12 "
    "simd.batch_row_dots.calls=9 "
    "simd.batch_row_dots.elements=24024 "
    "simd.coupling.calls=26 "
    "simd.coupling.elements=1664 "
    "simd.kernel_transform.calls=9 "
    "simd.kernel_transform.elements=4004 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kExactPerSvmTile3[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.b49bp+19 "
    "exec.bytes_written=0x1.89a8p+17 "
    "exec.flops=0x1.144ad55555555p+19 "
    "exec.kernel_values_computed=24986 "
    "exec.kernel_values_reused=0 "
    "exec.launches=765 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.961ed7783e1bcp-15 "
    "phase.decision_values=0x1.66033f24ae09fp-9 "
    "phase.sigmoid=0x1.4b0912ce38dd4p-10 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.458734a915fa5p-11 "
    "simd.batch_row_dots.calls=252 "
    "simd.batch_row_dots.elements=149916 "
    "simd.coupling.calls=26 "
    "simd.coupling.elements=1664 "
    "simd.kernel_transform.calls=252 "
    "simd.kernel_transform.elements=24986 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kExactSharedTile5[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.7a4ap+18 "
    "exec.bytes_written=0x1.074p+15 "
    "exec.flops=0x1.1d8f555555556p+17 "
    "exec.kernel_values_computed=4004 "
    "exec.kernel_values_reused=20982 "
    "exec.launches=348 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.184a9642e9a65p-15 "
    "phase.decision_values=0x1.d6b5cfd7d159cp-11 "
    "phase.sigmoid=0x1.b9deb37f1dec6p-11 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.4cb24f4453305p-12 "
    "simd.batch_row_dots.calls=6 "
    "simd.batch_row_dots.elements=24024 "
    "simd.coupling.calls=26 "
    "simd.coupling.elements=1664 "
    "simd.kernel_transform.calls=6 "
    "simd.kernel_transform.elements=4004 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kExactPerSvmTile5[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.4f4p+19 "
    "exec.bytes_written=0x1.89a8p+17 "
    "exec.flops=0x1.144ad55555556p+19 "
    "exec.kernel_values_computed=24986 "
    "exec.kernel_values_reused=0 "
    "exec.launches=510 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.184a9642e9a66p-15 "
    "phase.decision_values=0x1.efd30c2c08465p-10 "
    "phase.sigmoid=0x1.b9deb37f1dec6p-11 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.be957f5b82b5cp-12 "
    "simd.batch_row_dots.calls=168 "
    "simd.batch_row_dots.elements=149916 "
    "simd.coupling.calls=26 "
    "simd.coupling.elements=1664 "
    "simd.kernel_transform.calls=168 "
    "simd.kernel_transform.elements=24986 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kExactSharedTile8[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.64a2p+18 "
    "exec.bytes_written=0x1.074p+15 "
    "exec.flops=0x1.1d8f555555554p+17 "
    "exec.kernel_values_computed=4004 "
    "exec.kernel_values_reused=20982 "
    "exec.launches=232 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.88cf803eb804ep-16 "
    "phase.decision_values=0x1.3dc420420e31ap-11 "
    "phase.sigmoid=0x1.2711bcc0e60e7p-11 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.c413595a7a8e7p-13 "
    "simd.batch_row_dots.calls=4 "
    "simd.batch_row_dots.elements=24024 "
    "simd.coupling.calls=26 "
    "simd.coupling.elements=1664 "
    "simd.kernel_transform.calls=4 "
    "simd.kernel_transform.elements=4004 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kExactPerSvmTile8[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.0baep+19 "
    "exec.bytes_written=0x1.89a8p+17 "
    "exec.flops=0x1.144ad55555555p+19 "
    "exec.kernel_values_computed=24986 "
    "exec.kernel_values_reused=0 "
    "exec.launches=340 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.88cf803eb804cp-16 "
    "phase.decision_values=0x1.499192d46fa7ap-10 "
    "phase.sigmoid=0x1.2711bcc0e60e4p-11 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.2ebd1bd109368p-12 "
    "simd.batch_row_dots.calls=112 "
    "simd.batch_row_dots.elements=149916 "
    "simd.coupling.calls=26 "
    "simd.coupling.elements=1664 "
    "simd.kernel_transform.calls=112 "
    "simd.kernel_transform.elements=24986 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kVotingTile0[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.3176p+18 "
    "exec.bytes_written=0x1.f48p+14 "
    "exec.flops=0x1.00dap+17 "
    "exec.kernel_values_computed=4004 "
    "exec.kernel_values_reused=20982 "
    "exec.launches=57 "
    "labels=d7b6e361ade408e5 "
    "phase.decision_values=0x1.5c6e6aecb2f11p-13 "
    "probabilities=8b72a07ce7a57e16 "
    "sim_seconds=0x1.b343332ac9fd7p-15 "
    "simd.batch_row_dots.calls=1 "
    "simd.batch_row_dots.elements=24024 "
    "simd.coupling.calls=0 "
    "simd.coupling.elements=0 "
    "simd.kernel_transform.calls=1 "
    "simd.kernel_transform.elements=4004 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kVotingTile5[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=0 "
    "cascade.pairs_evaluated=0 "
    "cascade.rows=0 "
    "exec.bytes_read=0x1.679ap+18 "
    "exec.bytes_written=0x1.f48p+14 "
    "exec.flops=0x1.00dap+17 "
    "exec.kernel_values_computed=4004 "
    "exec.kernel_values_reused=20982 "
    "exec.launches=342 "
    "labels=d7b6e361ade408e5 "
    "phase.decision_values=0x1.d6b5cfd7d1598p-11 "
    "probabilities=8b72a07ce7a57e16 "
    "sim_seconds=0x1.295316406d393p-12 "
    "simd.batch_row_dots.calls=6 "
    "simd.batch_row_dots.elements=24024 "
    "simd.coupling.calls=0 "
    "simd.coupling.elements=0 "
    "simd.kernel_transform.calls=6 "
    "simd.kernel_transform.elements=4004 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kCascadeDefaultBandTile0[] =
    "cascade.classes_eliminated=145 "
    "cascade.fallback_rows=2 "
    "cascade.pairs_evaluated=282 "
    "cascade.rows=26 "
    "exec.bytes_read=0x1.b196p+18 "
    "exec.bytes_written=0x1.042p+15 "
    "exec.flops=0x1.a208aaaaaaaabp+16 "
    "exec.kernel_values_computed=3954 "
    "exec.kernel_values_reused=7904 "
    "exec.launches=4 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.653e2b98179c8p-18 "
    "phase.decision_values=0x1.b4d3bbacb1ae8p-18 "
    "phase.elimination=0x1.720a759e2c3c9p-15 "
    "phase.sigmoid=0x1.5dffa01c9c288p-18 "
    "probabilities=4f6072e769e8ab28 "
    "sim_seconds=0x1.09981cee55765p-14 "
    "simd.batch_row_dots.calls=1 "
    "simd.batch_row_dots.elements=24024 "
    "simd.coupling.calls=24 "
    "simd.coupling.elements=231 "
    "simd.kernel_transform.calls=1 "
    "simd.kernel_transform.elements=4004 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kCascadeBand1Tile0[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=26 "
    "cascade.pairs_evaluated=282 "
    "cascade.rows=26 "
    "exec.bytes_read=0x1.6529p+19 "
    "exec.bytes_written=0x1.074p+15 "
    "exec.flops=0x1.4a30555555555p+17 "
    "exec.kernel_values_computed=4004 "
    "exec.kernel_values_reused=30918 "
    "exec.launches=4 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.1c57fc9bbfbcp-17 "
    "phase.decision_values=0x1.9d502bd6df99ap-16 "
    "phase.elimination=0x1.720a759e2c3c9p-15 "
    "phase.sigmoid=0x1.05b97d64afadp-17 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.6dad3eae04f2ap-14 "
    "simd.batch_row_dots.calls=1 "
    "simd.batch_row_dots.elements=24024 "
    "simd.coupling.calls=48 "
    "simd.coupling.elements=1767 "
    "simd.kernel_transform.calls=1 "
    "simd.kernel_transform.elements=4004 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kCascadeDefaultBandTile8[] =
    "cascade.classes_eliminated=145 "
    "cascade.fallback_rows=2 "
    "cascade.pairs_evaluated=282 "
    "cascade.rows=26 "
    "exec.bytes_read=0x1.b196p+18 "
    "exec.bytes_written=0x1.042p+15 "
    "exec.flops=0x1.a208aaaaaaaaap+16 "
    "exec.kernel_values_computed=3954 "
    "exec.kernel_values_reused=7904 "
    "exec.launches=12 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.5504217aecd31p-16 "
    "phase.decision_values=0x1.822f8a1d741eap-17 "
    "phase.elimination=0x1.efdeb6d380b24p-15 "
    "phase.sigmoid=0x1.56c57c55695bap-17 "
    "probabilities=4f6072e769e8ab28 "
    "sim_seconds=0x1.b160ce40003ep-14 "
    "simd.batch_row_dots.calls=4 "
    "simd.batch_row_dots.elements=24024 "
    "simd.coupling.calls=24 "
    "simd.coupling.elements=231 "
    "simd.kernel_transform.calls=4 "
    "simd.kernel_transform.elements=4004 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

const char kCascadeBand1Tile8[] =
    "cascade.classes_eliminated=0 "
    "cascade.fallback_rows=26 "
    "cascade.pairs_evaluated=282 "
    "cascade.rows=26 "
    "exec.bytes_read=0x1.6529p+19 "
    "exec.bytes_written=0x1.074p+15 "
    "exec.flops=0x1.4a30555555555p+17 "
    "exec.kernel_values_computed=4004 "
    "exec.kernel_values_reused=30918 "
    "exec.launches=16 "
    "labels=f183cefb39fc1230 "
    "phase.coupling=0x1.89d480b888c96p-16 "
    "phase.decision_values=0x1.4c7c5720c4428p-15 "
    "phase.elimination=0x1.efdeb6d380b24p-15 "
    "phase.sigmoid=0x1.7e85411d00c1cp-16 "
    "probabilities=97351b4f2f560939 "
    "sim_seconds=0x1.34aae08c56efp-13 "
    "simd.batch_row_dots.calls=4 "
    "simd.batch_row_dots.elements=24024 "
    "simd.coupling.calls=48 "
    "simd.coupling.elements=1767 "
    "simd.kernel_transform.calls=4 "
    "simd.kernel_transform.elements=4004 "
    "simd.scatter_row_dots.calls=0 "
    "simd.scatter_row_dots.elements=0 ";

TEST(PredictPinTest, ExactSharedTile0) {
  ExpectRun(Exact(0, /*share=*/true), kExactSharedTile0);
}

TEST(PredictPinTest, ExactPerSvmTile0) {
  ExpectRun(Exact(0, /*share=*/false), kExactPerSvmTile0);
}

TEST(PredictPinTest, ExactSharedTile1) {
  ExpectRun(Exact(1, /*share=*/true), kExactSharedTile1);
}

TEST(PredictPinTest, ExactPerSvmTile1) {
  ExpectRun(Exact(1, /*share=*/false), kExactPerSvmTile1);
}

TEST(PredictPinTest, ExactSharedTile3) {
  ExpectRun(Exact(3, /*share=*/true), kExactSharedTile3);
}

TEST(PredictPinTest, ExactPerSvmTile3) {
  ExpectRun(Exact(3, /*share=*/false), kExactPerSvmTile3);
}

TEST(PredictPinTest, ExactSharedTile5) {
  ExpectRun(Exact(5, /*share=*/true), kExactSharedTile5);
}

TEST(PredictPinTest, ExactPerSvmTile5) {
  ExpectRun(Exact(5, /*share=*/false), kExactPerSvmTile5);
}

TEST(PredictPinTest, ExactSharedTile8) {
  ExpectRun(Exact(8, /*share=*/true), kExactSharedTile8);
}

TEST(PredictPinTest, ExactPerSvmTile8) {
  ExpectRun(Exact(8, /*share=*/false), kExactPerSvmTile8);
}

TEST(PredictPinTest, VotingTile0) {
  ExpectRun(Voting(0), kVotingTile0);
}

TEST(PredictPinTest, VotingTile5) {
  ExpectRun(Voting(5), kVotingTile5);
}

TEST(PredictPinTest, CascadeDefaultBandTile0) {
  ExpectRun(Cascade(0, 0.05), kCascadeDefaultBandTile0);
}

TEST(PredictPinTest, CascadeBand1Tile0) {
  ExpectRun(Cascade(0, 1.0), kCascadeBand1Tile0);
}

TEST(PredictPinTest, CascadeDefaultBandTile8) {
  ExpectRun(Cascade(8, 0.05), kCascadeDefaultBandTile8);
}

TEST(PredictPinTest, CascadeBand1Tile8) {
  ExpectRun(Cascade(8, 1.0), kCascadeBand1Tile8);
}

// One executor kept across calls, as a serve worker keeps its own: PredictRows
// at 1- and 5-row tiles, exact and cascade, shared and per-SVM kernel values,
// then two Train calls (with and without the shared block cache). Every
// call must leave the stream count where it found it. Each call's simulated
// seconds and phases, and the executor's counters, are pinned to values
// recorded on the same sequence before streams were retired: sim times are
// differences of absolute makespans, so a used executor may differ from a
// fresh one in the last bits and only a recorded value can say the retired
// streams changed nothing.
Pins LongLivedExecutorPins(int host_threads) {
  const Fixture& fx = SharedFixture();
  ExecutorModel device = ExecutorModel::TeslaP100();
  device.host_threads = host_threads;
  SimExecutor exec(device);
  const int streams = exec.num_streams();
  const MpSvmPredictor predictor(&fx.model);

  Pins pins;
  int call = 0;
  int64_t next_row = 0;
  for (const int64_t rows : {1, 5}) {
    for (const bool cascade : {false, true}) {
      for (const bool share : {true, false}) {
        PredictOptions options =
            cascade ? Cascade(0, CascadeOptions{}.ambiguity_band) : Exact(0, share);
        options.share_kernel_values = share;
        std::vector<SparseRowView> views;
        for (int64_t i = 0; i < rows; ++i, ++next_row) {
          const int64_t row = next_row % kTestRows;
          views.push_back({fx.test.RowIndices(row), fx.test.RowValues(row)});
        }
        const PredictResult result =
            ValueOrDie(predictor.PredictRows(views, &exec, options));
        const std::string key = StrPrintf("predict%d.", call++);
        EXPECT_EQ(exec.num_streams(), streams) << key;
        pins.Doubles(key + "probabilities", result.probabilities);
        pins.Real(key + "sim_seconds", result.sim_seconds);
        pins.Phases(key + "phase.", result.phases);
      }
    }
  }

  const Dataset train = ValueOrDie(MakeMulticlassBlobs(kClasses, 20, 6, 2.5, 17));
  for (const bool share_blocks : {true, false}) {
    MpTrainOptions options;
    options.c = 1.0;
    options.kernel.gamma = 0.3;
    options.batch.working_set.ws_size = 32;
    options.batch.working_set.q = 16;
    options.share_kernel_blocks = share_blocks;
    MpTrainReport report;
    ValueOrDie(GmpSvmTrainer(options).Train(train, &exec, &report));
    const std::string key = StrPrintf("train%d.", call++);
    EXPECT_EQ(exec.num_streams(), streams) << key;
    pins.Real(key + "sim_seconds", report.sim_seconds);
    pins.Phases(key + "phase.", report.phases);
  }

  const ExecutorCounters& c = exec.counters();
  pins.Count("exec.launches", c.launches);
  pins.Real("exec.flops", c.flops);
  pins.Real("exec.bytes_read", c.bytes_read);
  pins.Real("exec.bytes_written", c.bytes_written);
  pins.Real("exec.bytes_h2d", c.bytes_h2d);
  pins.Count("exec.kernel_values_computed", c.kernel_values_computed);
  pins.Count("exec.kernel_values_reused", c.kernel_values_reused);
  pins.Count("exec.peak_bytes_in_use", static_cast<int64_t>(c.peak_bytes_in_use));
  pins.Real("exec.now_seconds", exec.NowSeconds());
  return pins;
}

const char kLongLivedExecutor[] =
    "exec.bytes_h2d=0x1.aab8p+17 "
    "exec.bytes_read=0x1.0bc96p+23 "
    "exec.bytes_written=0x1.6f998p+20 "
    "exec.flops=0x1.11a6c3e489acp+22 "
    "exec.kernel_values_computed=86019 "
    "exec.kernel_values_reused=266467 "
    "exec.launches=2713 "
    "exec.now_seconds=0x1.4d124f9aa282fp-9 "
    "exec.peak_bytes_in_use=2147493888 "
    "predict0.phase.coupling=0x1.585ac11f858d8p-18 "
    "predict0.phase.decision_values=0x1.341f23a7cc9a8p-13 "
    "predict0.phase.sigmoid=0x1.25d3be9aa953dp-13 "
    "predict0.probabilities=478397e6b887bcc2 "
    "predict0.sim_seconds=0x1.c0376902b10b4p-15 "
    "predict1.phase.coupling=0x1.585ac11f858ep-18 "
    "predict1.phase.decision_values=0x1.2e20b88de1128p-12 "
    "predict1.phase.sigmoid=0x1.25d3be9aa953ap-13 "
    "predict1.probabilities=a531ba056fb76076 "
    "predict1.sim_seconds=0x1.1e7129176eab8p-14 "
    "predict2.phase.coupling=0x1.4fb7538df982p-18 "
    "predict2.phase.elimination=0x1.b48470ff95e8p-18 "
    "predict2.probabilities=00854bc79ff807cf "
    "predict2.sim_seconds=0x1.c51487afd317p-17 "
    "predict3.phase.coupling=0x1.4fb7538df982p-18 "
    "predict3.phase.elimination=0x1.1711d342c332p-17 "
    "predict3.probabilities=3b42410620172d67 "
    "predict3.sim_seconds=0x1.00f2113965aa8p-16 "
    "predict4.phase.coupling=0x1.7b986364c188p-18 "
    "predict4.phase.decision_values=0x1.3af19f24b1c1ep-13 "
    "predict4.phase.sigmoid=0x1.26bb03138fadcp-13 "
    "predict4.probabilities=3e1099adbd96fd31 "
    "predict4.sim_seconds=0x1.cb5b2889eb9dp-15 "
    "predict5.phase.coupling=0x1.7b986364c188p-18 "
    "predict5.phase.decision_values=0x1.503be4d3a6682p-12 "
    "predict5.phase.sigmoid=0x1.26bb03138fadp-13 "
    "predict5.probabilities=b69605cfff2e79b7 "
    "predict5.sim_seconds=0x1.34523d064a97ep-14 "
    "predict6.phase.coupling=0x1.595ea7ac4428p-18 "
    "predict6.phase.decision_values=0x1.822f8a1d742p-18 "
    "predict6.phase.elimination=0x1.a339523e5c58p-17 "
    "predict6.phase.sigmoid=0x1.56c57c55695cp-18 "
    "predict6.probabilities=e4d67365fdd7682d "
    "predict6.sim_seconds=0x1.000fb7d56ea48p-15 "
    "predict7.phase.coupling=0x1.5070692cf894p-18 "
    "predict7.phase.elimination=0x1.71c8620dea6cp-16 "
    "predict7.probabilities=eda770c28f1a4005 "
    "predict7.sim_seconds=0x1.e7d2575d0f45p-16 "
    "train8.phase.kernel_values=0x1.6af6d9312a5a2p-10 "
    "train8.phase.other=0x1.238f66af72b76p-9 "
    "train8.phase.sigmoid=0x1.ec8c64ab18295p-10 "
    "train8.phase.subproblem=0x1.f130f15deb2d3p-11 "
    "train8.sim_seconds=0x1.1c46555da398p-10 "
    "train9.phase.kernel_values=0x1.6b4a21d9a7f8ap-10 "
    "train9.phase.other=0x1.238f66af72b9dp-9 "
    "train9.phase.sigmoid=0x1.ec8c64ab18274p-10 "
    "train9.phase.subproblem=0x1.f130f15deb32ap-11 "
    "train9.sim_seconds=0x1.2527c678fc055p-10 ";

TEST(PredictPinTest, LongLivedExecutorStaysBoundedAndKeepsTime) {
  for (int host_threads : {1, 4}) {
    SCOPED_TRACE(StrPrintf("host_threads=%d", host_threads));
    ExpectPins(kLongLivedExecutor, LongLivedExecutorPins(host_threads));
  }
}

TEST(PredictPinTest, FixtureExercisesTheCascade) {
  const Fixture& fx = SharedFixture();
  ASSERT_TRUE(fx.model.has_cascade_stats());
  SimExecutor exec(ExecutorModel::TeslaP100());
  const PredictResult result = ValueOrDie(MpSvmPredictor(&fx.model).Predict(
      fx.test, &exec, Cascade(0, CascadeOptions{}.ambiguity_band)));
  // Some rows eliminate classes and some fall back.
  EXPECT_GT(result.cascade_classes_eliminated, 0);
  EXPECT_GT(result.cascade_fallback_rows, 0);
  EXPECT_LT(result.cascade_fallback_rows, result.cascade_rows);
}

}  // namespace
}  // namespace gmpsvm
