// Command-line tool in the spirit of LibSVM's svm-train / svm-predict,
// backed by GMP-SVM on the simulated device. Works on LibSVM-format files.
//
//   svm_tool train [-c C] [-g gamma] [-e eps] [-b cv_folds] [--devices N]
//       [--nodes N] [--max-shards M] [--link-gbps X] [--link-latency-us Y]
//       [--metrics-out m.prom] [--trace-out t.json]
//       [--checkpoint-dir d] [--resume] [--chaos-seed s] [--skip-degraded]
//       <train> <model>
//   svm_tool predict [--devices N] <test.libsvm> <model.in> [predictions.out]
//   svm_tool scale <in.libsvm> <out.libsvm>        (min-max to [-1, 1])
//   svm_tool cv [-c C] [-g gamma] [-v folds] [--devices N] <train.libsvm>
//   svm_tool grid [-v folds] [--devices N] <train.libsvm>  (C/gamma grid)
//   svm_tool serve [-n N] [-w workers] [-b max_batch] [--chaos-seed s]
//       [--devices N] [--metrics-out m.prom] [--trace-out t.json] <model.in>
//       (micro-batching inference-server smoke: N synthetic requests)
//   svm_tool serve --fleet-config fleet.cfg [--verify] [...same flags...]
//       (multi-tenant fleet smoke: tenants/models/quotas come from the
//       config file — see src/fleet/fleet_config.h; --verify checks every
//       response byte-for-byte against a direct clean-executor prediction)
//
// --metrics-out dumps the observability registry as Prometheus text;
// --trace-out dumps the merged Chrome trace (open in chrome://tracing or
// https://ui.perfetto.dev). Both work on train and serve.
//
// --chaos-seed attaches a seeded FaultPlan::Chaos to the simulated device:
// training retries/recovers through the injected faults and still produces
// the byte-identical model; serve answers every accepted request.
// --checkpoint-dir/--resume persist per-pair training progress so an
// interrupted run picks up where it left off.
//
// --devices N runs on a simulated N-device cluster (docs/scaling.md):
// train shards the pairwise problems across devices (same model bytes at any
// N), predict shards the test rows, and serve routes requests across N
// replicas. cv/grid run their fold training on device 0 — the flag is
// validated but the results are identical at any N by construction.
// Checkpoint/resume are single-device concepts; combining them with
// --devices > 1 is a usage error. Unknown flags are usage errors (exit 2).
//
// --nodes N (train only) groups the devices into N simulated nodes
// (contiguous groups; 1 <= N <= devices). --max-shards M lets the scheduler
// split an oversized pair's instances across up to M devices
// (solver/batch_smo_solver.h); --link-gbps / --link-latency-us configure the
// inter-node link the allreduce cost model prices (docs/cost_model.md).
// Models and probabilities stay byte-identical for every topology; only the
// simulated makespan moves. Out-of-range values are usage errors (exit 2).
//
// Exit codes: 0 success; 1 fatal error; 2 usage; 3 degraded completion (the
// run finished but some pairs were skipped as degraded, or some chaos serve
// requests received failure responses).
//
// Predict prints the test error when the file has labels, and writes one
// line per instance: "<label> <p_class0> <p_class1> ...".

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <memory>

#include "cluster/cluster.h"
#include "cluster/cluster_predictor.h"
#include "cluster/cluster_trainer.h"
#include "online/delta.h"
#include "online/retrain_daemon.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/cross_validation.h"
#include "core/grid_search.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "data/libsvm_io.h"
#include "data/scale.h"
#include "data/synthetic.h"
#include "device/executor.h"
#include "fault/fault_injector.h"
#include "fleet/fleet_config.h"
#include "fleet/fleet_server.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/replica_router.h"
#include "serve/server.h"
#include "simd/simd.h"

using namespace gmpsvm;  // NOLINT: example brevity

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  svm_tool train [-c C] [-g gamma] [-e eps] [-b folds]\n"
               "      [--host-threads N] [--devices N] [--nodes N]\n"
               "      [--max-shards M] [--link-gbps X] [--link-latency-us Y]\n"
               "      [--metrics-out m.prom]\n"
               "      [--trace-out t.json] [--checkpoint-dir d] [--resume]\n"
               "      [--chaos-seed s] [--skip-degraded] <data> <model>\n"
               "  svm_tool predict [--host-threads N] [--devices N]\n"
               "      [--cascade exact|eliminate] [--cascade-budget N]\n"
               "      [--cascade-threshold T] [--cascade-band B]\n"
               "      <data> <model> [out]\n"
               "  svm_tool scale <in> <out>\n"
               "  svm_tool cv [-c C] [-g gamma] [-v folds] [--devices N] <data>\n"
               "  svm_tool grid [-v folds] [--devices N] <data>\n"
               "  svm_tool serve [-n requests] [-w workers] [-b max_batch]\n"
               "      [--host-threads N] [--devices N] [--chaos-seed s]\n"
               "      [--cascade ...same predict flags...]\n"
               "      [--metrics-out m.prom] [--trace-out t.json] <model>\n"
               "  svm_tool serve --fleet-config fleet.cfg [--verify]\n"
               "      [...same serve flags, no positional model...]\n"
               "  svm_tool make-delta [--relabel N] [--add N] [--from C]\n"
               "      [--to C] [--seed S] <data> <out.delta>\n"
               "  svm_tool retrain-daemon --delta-dir d [--requests N]\n"
               "      [--brier-threshold T] [--canary-fraction F]\n"
               "      [--canary-tolerance L]\n"
               "      [--host-threads N] [--devices N] [--chaos-seed s]\n"
               "      [--metrics-out m.prom] [--model-out model.out]\n"
               "      <data> <model>\n"
               "  svm_tool bench-env      (print detected ISA / SIMD tier)\n"
               "--simd auto|scalar|avx2 selects the host SIMD tier for every\n"
               "command (global flag, any position; default auto = avx2 if\n"
               "the CPU has it, else scalar). All tiers are byte-identical —\n"
               "docs/performance.md — so the flag is a speed knob only; an\n"
               "unknown tier or one the CPU cannot run is a usage error.\n"
               "--host-threads sets real worker threads for the hot paths;\n"
               "outputs are byte-identical for every value (wall clock only)\n"
               "--devices shards train/predict/serve across a simulated\n"
               "cluster; models and probabilities are byte-identical for\n"
               "every device count (docs/scaling.md). --devices must be >= 1\n"
               "and excludes --checkpoint-dir/--resume when > 1.\n"
               "--nodes groups train's devices into simulated nodes\n"
               "(1 <= nodes <= devices); --max-shards >= 1 bounds intra-pair\n"
               "instance sharding; --link-gbps > 0 and --link-latency-us >= 0\n"
               "set the inter-node link (defaults 12.5 GB/s, 5 us). Models\n"
               "are byte-identical for every topology (docs/scaling.md).\n"
               "--cascade eliminate enables the class-elimination prediction\n"
               "cascade (docs/cascade.md); --cascade exact (the default) is\n"
               "byte-identical to the pre-cascade predictor.\n"
               "Unknown flags are rejected.\n"
               "exit codes: 0 ok, 1 fatal, 2 usage, 3 degraded completion\n");
  return 2;
}

// Parses the shared --devices flag inside a command's argument loop. Returns
// false (a usage error) when the value is missing, not a number, or < 1 —
// "--devices 0" is explicitly rejected rather than clamped.
bool ParseDevicesFlag(int argc, char** argv, int* arg, int* devices) {
  if (*arg + 1 >= argc) return false;
  *devices = std::atoi(argv[++*arg]);
  return *devices >= 1;
}

// Parses the cascade flags shared by predict and serve. Returns 1 when the
// token (plus any value) was consumed, 0 when it is not a cascade flag, and
// -1 on a missing or malformed value ("--cascade=eliminate" is accepted as a
// spelling of "--cascade eliminate"). Range checking is left to
// PredictOptions::Validate(), which names the offending field.
int ParseCascadeArg(int argc, char** argv, int* arg, CascadeOptions* cascade) {
  const char* token = argv[*arg];
  const auto set_mode = [cascade](const char* value) {
    if (std::strcmp(value, "exact") == 0) {
      cascade->mode = CascadeOptions::Mode::kExact;
      return true;
    }
    if (std::strcmp(value, "eliminate") == 0) {
      cascade->mode = CascadeOptions::Mode::kEliminate;
      return true;
    }
    std::fprintf(stderr, "error: --cascade must be exact|eliminate, got %s\n",
                 value);
    return false;
  };
  if (std::strncmp(token, "--cascade=", 10) == 0) {
    return set_mode(token + 10) ? 1 : -1;
  }
  if (std::strcmp(token, "--cascade") == 0) {
    if (*arg + 1 >= argc) return -1;
    return set_mode(argv[++*arg]) ? 1 : -1;
  }
  const bool budget = std::strcmp(token, "--cascade-budget") == 0;
  const bool threshold = std::strcmp(token, "--cascade-threshold") == 0;
  if (!budget && !threshold && std::strcmp(token, "--cascade-band") != 0) {
    return 0;
  }
  if (*arg + 1 >= argc) return -1;
  const char* value = argv[++*arg];
  const bool parsed =
      budget ? ParseInt32(value, &cascade->budget)
             : ParseDouble(value, threshold ? &cascade->elimination_threshold
                                            : &cascade->ambiguity_band);
  if (!parsed) {
    std::fprintf(stderr, "error: %s needs a number, got '%s'\n", token, value);
    return -1;
  }
  return 1;
}

// Writes `content` to `path`; returns false (with a message) on failure.
bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

// Dumps the observability registry as Prometheus text, publishing the SIMD
// dispatch counters first so every metrics dump carries the gmpsvm_simd_*
// series (active tier, per-path call/flop counters, effective GFLOP/s).
bool WriteMetricsFile(obs::MetricsRegistry* metrics, const std::string& path) {
  simd::PublishMetrics(metrics);
  return WriteTextFile(path, metrics->ToPrometheusText());
}

int ScaleCommand(int argc, char** argv) {
  if (argc != 2) return Usage();
  if (argv[0][0] == '-' || argv[1][0] == '-') return Usage();
  auto file = ReadLibsvmFile(argv[0]);
  if (!file.ok()) {
    std::fprintf(stderr, "error: %s\n", file.status().ToString().c_str());
    return 1;
  }
  auto scaler = FeatureScaler::Fit(file->dataset.features(),
                                   FeatureScaler::Mode::kMinMax);
  if (!scaler.ok()) {
    std::fprintf(stderr, "error: %s\n", scaler.status().ToString().c_str());
    return 1;
  }
  auto scaled_data = Dataset::Create(scaler->Apply(file->dataset.features()),
                                     file->dataset.labels(),
                                     file->dataset.num_classes());
  GMP_CHECK_OK(scaled_data.status());
  GMP_CHECK_OK(WriteLibsvmFile(argv[1], *scaled_data, file->label_values));
  std::printf("scaled %lld instances to [-1, 1], written to %s\n",
              static_cast<long long>(file->dataset.size()), argv[1]);
  return 0;
}

int CvCommand(int argc, char** argv) {
  double c = 1.0, gamma = 0.5;
  int folds = 5, devices = 1;
  std::string data_path;
  for (int arg = 0; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "-c") == 0 && arg + 1 < argc) {
      c = std::atof(argv[++arg]);
    } else if (std::strcmp(argv[arg], "-g") == 0 && arg + 1 < argc) {
      gamma = std::atof(argv[++arg]);
    } else if (std::strcmp(argv[arg], "-v") == 0 && arg + 1 < argc) {
      folds = std::atoi(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--devices") == 0) {
      if (!ParseDevicesFlag(argc, argv, &arg, &devices)) return Usage();
    } else if (argv[arg][0] == '-') {
      return Usage();
    } else if (data_path.empty()) {
      data_path = argv[arg];
    } else {
      return Usage();
    }
  }
  if (data_path.empty()) return Usage();
  auto file = ReadLibsvmFile(data_path);
  if (!file.ok()) {
    std::fprintf(stderr, "error: %s\n", file.status().ToString().c_str());
    return 1;
  }
  CrossValidationOptions options;
  options.folds = folds;
  options.train.c = c;
  options.train.kernel.gamma = gamma;
  // Fold training runs on device 0: CV results are identical at any device
  // count (models are schedule-invariant), so extra devices add nothing here.
  cluster::SimCluster cluster_devices =
      cluster::SimCluster::Homogeneous(devices, ExecutorModel::TeslaP100());
  if (devices > 1) {
    std::printf("note: cv trains folds on device 0 of %d\n", devices);
  }
  auto cv = CrossValidate(file->dataset, options, cluster_devices.device(0));
  if (!cv.ok()) {
    std::fprintf(stderr, "error: %s\n", cv.status().ToString().c_str());
    return 1;
  }
  std::printf("%d-fold CV: error %.4f%%  log-loss %.4f  brier %.4f "
              "(%.3f sim-s)\n",
              folds, 100.0 * cv->error_rate, cv->log_loss, cv->brier_score,
              cv->sim_seconds);
  return 0;
}

int GridCommand(int argc, char** argv) {
  int folds = 3, devices = 1;
  std::string data_path;
  for (int arg = 0; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "-v") == 0 && arg + 1 < argc) {
      folds = std::atoi(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--devices") == 0) {
      if (!ParseDevicesFlag(argc, argv, &arg, &devices)) return Usage();
    } else if (argv[arg][0] == '-') {
      return Usage();
    } else if (data_path.empty()) {
      data_path = argv[arg];
    } else {
      return Usage();
    }
  }
  if (data_path.empty()) return Usage();
  auto file = ReadLibsvmFile(data_path);
  if (!file.ok()) {
    std::fprintf(stderr, "error: %s\n", file.status().ToString().c_str());
    return 1;
  }
  GridSearchOptions options;
  options.folds = folds;
  // Same device-0 semantics as cv: grid cells are schedule-invariant.
  cluster::SimCluster cluster_devices =
      cluster::SimCluster::Homogeneous(devices, ExecutorModel::TeslaP100());
  if (devices > 1) {
    std::printf("note: grid trains folds on device 0 of %d\n", devices);
  }
  auto grid = GridSearch(file->dataset, options, cluster_devices.device(0));
  if (!grid.ok()) {
    std::fprintf(stderr, "error: %s\n", grid.status().ToString().c_str());
    return 1;
  }
  for (const auto& cell : grid->cells) {
    std::printf("C=%-8g gamma=%-8g cv-error=%.4f%%  log-loss=%.4f\n", cell.c,
                cell.gamma, 100.0 * cell.error_rate, cell.log_loss);
  }
  std::printf("best: C=%g gamma=%g (cv-error %.4f%%)\n", grid->best.c,
              grid->best.gamma, 100.0 * grid->best.error_rate);
  return 0;
}

int TrainCommand(int argc, char** argv) {
  double c = 1.0, gamma = 0.5, eps = 1e-3;
  int cv_folds = 0, host_threads = 1, devices = 1;
  int nodes = 1, max_shards = 1;
  double link_gbps = 12.5, link_latency_us = 5.0;
  bool resume = false, skip_degraded = false, chaos = false;
  uint64_t chaos_seed = 0;
  std::string metrics_out, trace_out, checkpoint_dir;
  int arg = 0;
  std::string positional[2];
  int npos = 0;
  while (arg < argc) {
    if (std::strcmp(argv[arg], "-c") == 0 && arg + 1 < argc) {
      c = std::atof(argv[++arg]);
    } else if (std::strcmp(argv[arg], "-g") == 0 && arg + 1 < argc) {
      gamma = std::atof(argv[++arg]);
    } else if (std::strcmp(argv[arg], "-e") == 0 && arg + 1 < argc) {
      eps = std::atof(argv[++arg]);
    } else if (std::strcmp(argv[arg], "-b") == 0 && arg + 1 < argc) {
      cv_folds = std::atoi(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--host-threads") == 0 && arg + 1 < argc) {
      host_threads = std::atoi(argv[++arg]);
      if (host_threads < 1) return Usage();
    } else if (std::strcmp(argv[arg], "--metrics-out") == 0 && arg + 1 < argc) {
      metrics_out = argv[++arg];
    } else if (std::strcmp(argv[arg], "--trace-out") == 0 && arg + 1 < argc) {
      trace_out = argv[++arg];
    } else if (std::strcmp(argv[arg], "--checkpoint-dir") == 0 && arg + 1 < argc) {
      checkpoint_dir = argv[++arg];
    } else if (std::strcmp(argv[arg], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[arg], "--skip-degraded") == 0) {
      skip_degraded = true;
    } else if (std::strcmp(argv[arg], "--chaos-seed") == 0 && arg + 1 < argc) {
      chaos = true;
      chaos_seed = static_cast<uint64_t>(std::atoll(argv[++arg]));
    } else if (std::strcmp(argv[arg], "--devices") == 0) {
      if (!ParseDevicesFlag(argc, argv, &arg, &devices)) return Usage();
    } else if (std::strcmp(argv[arg], "--nodes") == 0 && arg + 1 < argc) {
      nodes = std::atoi(argv[++arg]);
      if (nodes < 1) return Usage();
    } else if (std::strcmp(argv[arg], "--max-shards") == 0 && arg + 1 < argc) {
      max_shards = std::atoi(argv[++arg]);
      if (max_shards < 1) return Usage();
    } else if (std::strcmp(argv[arg], "--link-gbps") == 0 && arg + 1 < argc) {
      link_gbps = std::atof(argv[++arg]);
      if (!(link_gbps > 0.0)) return Usage();
    } else if (std::strcmp(argv[arg], "--link-latency-us") == 0 &&
               arg + 1 < argc) {
      link_latency_us = std::atof(argv[++arg]);
      if (!(link_latency_us >= 0.0)) return Usage();
    } else if (argv[arg][0] == '-') {
      return Usage();
    } else if (npos < 2) {
      positional[npos++] = argv[arg];
    } else {
      return Usage();
    }
    ++arg;
  }
  if (npos != 2) return Usage();
  if (resume && checkpoint_dir.empty()) return Usage();
  // Checkpoint/resume are single-device session concepts (the cluster
  // trainer's Validate rejects them too); fail fast as a usage error.
  if (devices > 1 && (resume || !checkpoint_dir.empty())) return Usage();
  // Node topology constraints: nodes group devices, so a run cannot have
  // more nodes than devices, and a shard group never exceeds the device
  // count. Rejecting here (exit 2) beats a late InvalidArgument.
  if (nodes > devices || max_shards > devices) return Usage();

  auto file = ReadLibsvmFile(positional[0]);
  if (!file.ok()) {
    std::fprintf(stderr, "error: %s\n", file.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %lld instances, %lld features, %d classes\n",
              static_cast<long long>(file->dataset.size()),
              static_cast<long long>(file->dataset.dim()),
              file->dataset.num_classes());

  MpTrainOptions options;
  options.c = c;
  options.kernel.gamma = gamma;
  options.batch.eps = eps;
  options.sigmoid_cv_folds = cv_folds;
  options.checkpoint.dir = checkpoint_dir;
  options.checkpoint.resume = resume;
  if (skip_degraded) {
    options.pair_failure_policy = PairFailurePolicy::kSkipDegraded;
  }

  options.host_threads = host_threads;

  obs::MetricsRegistry metrics;
  ExecutorModel device_model = ExecutorModel::TeslaP100();
  device_model.host_threads = host_threads;

  if (devices > 1) {
    cluster::SimCluster cluster_devices =
        cluster::SimCluster::Homogeneous(devices, device_model);
    dist::LinkModel inter = dist::NetworkClassLink();
    inter.bandwidth_bytes_per_sec = link_gbps * 1e9;
    inter.latency_seconds = link_latency_us * 1e-6;
    GMP_CHECK_OK(cluster_devices.SetTopology(dist::ClusterTopology::Contiguous(
        nodes, devices, dist::NvlinkClassLink(), inter)));
    if (nodes > 1 || max_shards > 1) {
      std::printf(
          "topology: %d node%s x %d devices, inter-node link %.1f GB/s + "
          "%.1f us, max %d shard%s/pair\n",
          nodes, nodes == 1 ? "" : "s", devices, link_gbps, link_latency_us,
          max_shards, max_shards == 1 ? "" : "s");
    }
    obs::TraceRecorder recorder;
    if (!trace_out.empty()) cluster_devices.SetSpanRecorder(&recorder);
    cluster::ClusterTrainOptions cluster_options;
    cluster_options.train = options;
    cluster_options.schedule.max_shards_per_pair = max_shards;
    // The flag is an explicit request to exercise the sharded path, so skip
    // the oversize cost comparison (factor 0 forces the shard decision).
    if (max_shards > 1) cluster_options.schedule.shard_oversize_factor = 0.0;
    if (chaos) {
      cluster_options.fault = fault::FaultPlan::Chaos(chaos_seed);
      cluster_options.fault_metrics = &metrics;
      std::printf("chaos enabled (seed %llu)\n",
                  static_cast<unsigned long long>(chaos_seed));
    }
    cluster::ClusterTrainReport report;
    auto model = cluster::ClusterTrainer(cluster_options)
                     .Train(file->dataset, &cluster_devices, &report);
    if (!model.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "trained %d binary SVMs on %d devices in %.3f sim-s makespan "
        "(%.3f s wall), %lld SVs\n",
        model->num_pairs(), devices, report.makespan_sim_seconds,
        report.wall_seconds, static_cast<long long>(model->pool_size()));
    for (int d = 0; d < cluster_devices.num_devices(); ++d) {
      const cluster::DeviceUtilization& u =
          report.devices[static_cast<size_t>(d)];
      std::printf("  device %d: %d pairs, %.3f sim-s (%.0f%% utilization)%s\n",
                  d, u.pairs_trained, u.sim_seconds, 100.0 * u.utilization,
                  u.lost ? " [lost]" : "");
    }
    if (report.pairs_sharded > 0) {
      std::printf(
          "sharding: %d pairs sharded, %lld allreduces (%.3f sim-s merge, "
          "%lld intra + %lld inter bytes)\n",
          report.pairs_sharded, static_cast<long long>(report.dist.allreduces),
          report.dist.merge_seconds,
          static_cast<long long>(report.dist.intra_node_bytes),
          static_cast<long long>(report.dist.inter_node_bytes));
    }
    if (report.devices_lost > 0 || report.nodes_lost > 0) {
      std::printf(
          "recovery: %d nodes lost, %d devices lost, %lld pairs rescheduled, "
          "%lld shards rescheduled\n",
          report.nodes_lost, report.devices_lost,
          static_cast<long long>(report.pairs_rescheduled),
          static_cast<long long>(report.shards_rescheduled));
    }
    if (report.merged.pair_retries > 0 || report.merged.pairs_degraded > 0) {
      std::printf("recovery: %lld pair retries, %lld pairs degraded\n",
                  static_cast<long long>(report.merged.pair_retries),
                  static_cast<long long>(report.merged.pairs_degraded));
    }
    GMP_CHECK_OK(SaveModel(*model, positional[1]));
    std::printf("model written to %s\n", positional[1].c_str());
    if (!metrics_out.empty()) {
      report.PublishTo(&metrics);
      for (int d = 0; d < cluster_devices.num_devices(); ++d) {
        cluster_devices.device(d)->counters().PublishTo(
            &metrics, {{"device", std::to_string(d)}});
      }
      if (!WriteMetricsFile(&metrics, metrics_out)) return 1;
      std::printf("metrics written to %s\n", metrics_out.c_str());
    }
    if (!trace_out.empty()) {
      if (!WriteTextFile(trace_out, recorder.ToChromeJson())) return 1;
      std::printf("trace written to %s (%zu spans)\n", trace_out.c_str(),
                  recorder.size());
    }
    return report.merged.pairs_degraded > 0 ? 3 : 0;
  }

  SimExecutor gpu(device_model);
  std::unique_ptr<fault::FaultInjector> injector;
  if (chaos) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::Chaos(chaos_seed), &metrics);
    gpu.SetFaultInjector(injector.get());
    std::printf("chaos enabled (seed %llu)\n",
                static_cast<unsigned long long>(chaos_seed));
  }
  obs::TraceRecorder recorder;
  if (!trace_out.empty()) gpu.SetSpanRecorder(&recorder);
  MpTrainReport report;
  auto model = GmpSvmTrainer(options).Train(file->dataset, &gpu, &report);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("trained %d binary SVMs in %.3f sim-s (%.3f s wall), %lld SVs\n",
              model->num_pairs(), report.sim_seconds, report.wall_seconds,
              static_cast<long long>(model->pool_size()));
  if (report.pairs_resumed > 0 || report.pair_retries > 0 ||
      report.pairs_degraded > 0) {
    std::printf("recovery: %lld pairs resumed, %lld pair retries, "
                "%lld pairs degraded\n",
                static_cast<long long>(report.pairs_resumed),
                static_cast<long long>(report.pair_retries),
                static_cast<long long>(report.pairs_degraded));
  }
  if (injector != nullptr) {
    std::printf("faults injected: %lld\n",
                static_cast<long long>(injector->total_injected()));
  }
  GMP_CHECK_OK(SaveModel(*model, positional[1]));
  std::printf("model written to %s\n", positional[1].c_str());
  if (!metrics_out.empty()) {
    gpu.counters().PublishTo(&metrics);
    report.PublishTo(&metrics);
    if (!WriteMetricsFile(&metrics, metrics_out)) return 1;
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!WriteTextFile(trace_out, recorder.ToChromeJson())) return 1;
    std::printf("trace written to %s (%zu spans)\n", trace_out.c_str(),
                recorder.size());
  }
  return report.pairs_degraded > 0 ? 3 : 0;
}

int PredictCommand(int argc, char** argv) {
  int host_threads = 1, devices = 1;
  PredictOptions predict;
  std::string positional[3];
  int npos = 0;
  for (int arg = 0; arg < argc; ++arg) {
    const int cascade_arg = ParseCascadeArg(argc, argv, &arg, &predict.cascade);
    if (cascade_arg != 0) {
      if (cascade_arg < 0) return Usage();
    } else if (std::strcmp(argv[arg], "--host-threads") == 0 && arg + 1 < argc) {
      host_threads = std::atoi(argv[++arg]);
      if (host_threads < 1) return Usage();
    } else if (std::strcmp(argv[arg], "--devices") == 0) {
      if (!ParseDevicesFlag(argc, argv, &arg, &devices)) return Usage();
    } else if (argv[arg][0] == '-') {
      return Usage();
    } else if (npos < 3) {
      positional[npos++] = argv[arg];
    } else {
      return Usage();
    }
  }
  if (npos < 2) return Usage();
  if (Status valid = predict.Validate(); !valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 2;
  }
  auto model = LoadModel(positional[1]);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  auto file = ReadLibsvmFile(positional[0], model->support_vectors.cols());
  if (!file.ok()) {
    std::fprintf(stderr, "error: %s\n", file.status().ToString().c_str());
    return 1;
  }

  ExecutorModel device_model = ExecutorModel::TeslaP100();
  device_model.host_threads = host_threads;
  Result<PredictResult> pred = Status::Internal("unreachable");
  if (devices > 1) {
    // Shard the test rows speed-weighted across the cluster; the merged
    // probabilities are bit-identical to the single-device path.
    cluster::SimCluster cluster_devices =
        cluster::SimCluster::Homogeneous(devices, device_model);
    pred = cluster::ClusterPredict(*model, file->dataset.features(),
                                   &cluster_devices, predict);
  } else {
    SimExecutor gpu(device_model);
    pred = MpSvmPredictor(&*model).Predict(file->dataset.features(), &gpu,
                                           predict);
  }
  if (!pred.ok()) {
    std::fprintf(stderr, "prediction failed: %s\n",
                 pred.status().ToString().c_str());
    return 1;
  }
  auto err = ErrorRate(pred->labels, file->dataset.labels());
  if (err.ok()) {
    std::printf("error rate: %.4f%% over %lld instances (%.3f sim-s)\n",
                100.0 * *err, static_cast<long long>(pred->num_instances),
                pred->sim_seconds);
  }
  if (predict.cascade.mode == CascadeOptions::Mode::kEliminate) {
    std::printf("cascade: %lld rows, %lld pair evals, %lld classes "
                "eliminated, %lld exact fallbacks\n",
                static_cast<long long>(pred->cascade_rows),
                static_cast<long long>(pred->cascade_pairs_evaluated),
                static_cast<long long>(pred->cascade_classes_eliminated),
                static_cast<long long>(pred->cascade_fallback_rows));
  }
  if (npos == 3) {
    std::ofstream out(positional[2]);
    for (int64_t i = 0; i < pred->num_instances; ++i) {
      out << pred->labels[static_cast<size_t>(i)];
      for (int c2 = 0; c2 < model->num_classes; ++c2) {
        out << ' ' << pred->Probability(i, c2);
      }
      out << '\n';
    }
    std::printf("probabilities written to %s\n", positional[2].c_str());
  }
  return 0;
}

// Multi-tenant fleet smoke (`serve --fleet-config`): load every tenant's
// model into a FleetServer, replay a weighted synthetic workload through the
// quota/overload gates, tick the autoscaler on a fixed cadence, and print
// the per-tenant fleet table. With --verify, every successful response is
// compared byte-for-byte against a direct single-model prediction computed
// on a clean (fault-free) executor — shared SV store, chaos retries, and
// replica count must not change a single probability bit.
int FleetServeCommand(const std::string& config_path, int num_requests,
                      ServeOptions options, bool chaos, uint64_t chaos_seed,
                      int devices, const std::string& metrics_out,
                      const std::string& trace_out, bool verify) {
  auto config = fleet::LoadFleetConfigFile(config_path);
  if (!config.ok()) {
    std::fprintf(stderr, "error: %s\n", config.status().ToString().c_str());
    return 1;
  }

  obs::MetricsRegistry metrics;
  obs::TraceRecorder recorder;
  if (!trace_out.empty()) options.trace = &recorder;
  std::unique_ptr<fault::FaultInjector> injector;
  if (chaos) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::Chaos(chaos_seed), &metrics);
    options.fault = injector.get();
    options.max_request_retries = 4;
    std::printf("chaos enabled (seed %llu)\n",
                static_cast<unsigned long long>(chaos_seed));
  }

  fleet::FleetOptions fleet_options;
  fleet_options.serve = options;
  fleet_options.initial_replicas = config->replicas;
  fleet_options.autoscale = config->autoscale;
  fleet_options.share_support_vectors = config->share_support_vectors;
  fleet_options.sv_cache_capacity = config->sv_cache_capacity;
  fleet_options.shed_start_fraction = config->shed_start_fraction;
  fleet_options.metrics = &metrics;
  if (devices > 1) {
    fleet_options.devices.assign(static_cast<size_t>(devices),
                                 options.executor_model);
  }

  fleet::FleetServer fleet_server(fleet_options);
  if (Status started = fleet_server.Start(); !started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }

  // Per-tenant query set plus (under --verify) the reference answers.
  struct TenantWorkload {
    std::string name;
    double weight = 1.0;
    CsrMatrix rows;
    int num_classes = 0;
    std::vector<double> ref_probs;   // row-major [row][class]
    std::vector<int32_t> ref_labels;
    int64_t next_row = 0;
  };
  std::vector<TenantWorkload> workloads;
  workloads.reserve(config->tenants.size());
  for (size_t t = 0; t < config->tenants.size(); ++t) {
    const fleet::FleetConfigTenant& tenant = config->tenants[t];
    auto model = LoadModel(tenant.model_path);
    if (!model.ok()) {
      std::fprintf(stderr, "error: tenant %s: %s\n", tenant.spec.name.c_str(),
                   model.status().ToString().c_str());
      return 1;
    }
    std::printf("tenant %s: %s (%d classes, %lld SVs) priority=%d rate=%g "
                "weight=%g\n",
                tenant.spec.name.c_str(), tenant.model_path.c_str(),
                model->num_classes,
                static_cast<long long>(model->support_vectors.rows()),
                tenant.spec.priority, tenant.spec.quota.rate_per_sec,
                tenant.spec.weight);

    SyntheticSpec spec;
    spec.name = "svm_tool-fleet-" + tenant.spec.name;
    spec.num_classes = model->num_classes;
    spec.cardinality = 64;
    spec.dim = std::max<int64_t>(model->support_vectors.cols(), 1);
    spec.density = 0.5;
    spec.seed = 99 + static_cast<uint64_t>(t);
    auto queries = GenerateSynthetic(spec);
    if (!queries.ok()) {
      std::fprintf(stderr, "error: %s\n", queries.status().ToString().c_str());
      return 1;
    }

    TenantWorkload workload;
    workload.name = tenant.spec.name;
    workload.weight = tenant.spec.weight > 0.0 ? tenant.spec.weight : 1.0;
    workload.rows = queries->features();
    workload.num_classes = model->num_classes;
    if (verify) {
      // Reference path: the plain predictor on a clean executor, no fault
      // injector, no SV store — what every fleet answer must match exactly.
      // The tenant's effective options (its override, else the fleet-wide
      // serve options) decide the reference too, so cascade/voting tenants
      // verify against the same pipeline their batches run.
      SimExecutor reference_gpu(options.executor_model);
      const PredictOptions reference_options =
          tenant.spec.predict.has_value() ? *tenant.spec.predict
                                          : options.predict;
      auto reference = MpSvmPredictor(&*model).Predict(
          workload.rows, &reference_gpu, reference_options);
      if (!reference.ok()) {
        std::fprintf(stderr, "error: reference prediction for %s: %s\n",
                     tenant.spec.name.c_str(),
                     reference.status().ToString().c_str());
        return 1;
      }
      workload.ref_labels = reference->labels;
      workload.ref_probs.reserve(
          static_cast<size_t>(reference->num_instances) *
          static_cast<size_t>(model->num_classes));
      for (int64_t i = 0; i < reference->num_instances; ++i) {
        for (int c = 0; c < model->num_classes; ++c) {
          workload.ref_probs.push_back(reference->Probability(i, c));
        }
      }
    }
    workloads.push_back(std::move(workload));

    auto version = fleet_server.AddTenant(tenant.spec, std::move(*model));
    if (!version.ok()) {
      std::fprintf(stderr, "error: %s\n", version.status().ToString().c_str());
      return 1;
    }
  }

  double total_weight = 0.0;
  for (const TenantWorkload& w : workloads) total_weight += w.weight;

  // Weighted-random tenant sampling with a fixed seed: the request sequence
  // is a pure function of the config, so reruns are comparable.
  Rng rng(99);
  struct PendingReply {
    size_t tenant;
    int64_t row;
    std::future<Result<PredictResponse>> future;
  };
  std::vector<PendingReply> pending;
  pending.reserve(static_cast<size_t>(num_requests));
  uint64_t shed = 0, rejected = 0;
  for (int r = 0; r < num_requests; ++r) {
    if (r % 32 == 0) fleet_server.ScaleTick();
    double pick = rng.Uniform() * total_weight;
    size_t t = 0;
    for (; t + 1 < workloads.size(); ++t) {
      pick -= workloads[t].weight;
      if (pick < 0.0) break;
    }
    TenantWorkload& w = workloads[t];
    const int64_t row = w.next_row++ % w.rows.rows();
    auto submitted =
        fleet_server.Submit(w.name, w.rows.RowIndices(row), w.rows.RowValues(row));
    if (!submitted.ok()) {
      if (submitted.status().code() == StatusCode::kUnavailable) {
        ++shed;
        continue;
      }
      if (submitted.status().code() == StatusCode::kResourceExhausted) {
        ++rejected;
        continue;
      }
      std::fprintf(stderr, "error: %s\n",
                   submitted.status().ToString().c_str());
      return 1;
    }
    pending.push_back(PendingReply{t, row, std::move(*submitted)});
  }

  int answered = 0, failed = 0, wrong = 0;
  for (PendingReply& p : pending) {
    auto response = p.future.get();
    ++answered;
    if (!response.ok()) {
      ++failed;
      if (!chaos) {
        std::fprintf(stderr, "request failed: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
      continue;
    }
    if (verify) {
      const TenantWorkload& w = workloads[p.tenant];
      const size_t base =
          static_cast<size_t>(p.row) * static_cast<size_t>(w.num_classes);
      const bool probs_match =
          response->probabilities.size() ==
              static_cast<size_t>(w.num_classes) &&
          std::memcmp(response->probabilities.data(), w.ref_probs.data() + base,
                      static_cast<size_t>(w.num_classes) * sizeof(double)) == 0;
      if (!probs_match ||
          response->label != w.ref_labels[static_cast<size_t>(p.row)]) {
        ++wrong;
        std::fprintf(stderr,
                     "wrong answer: tenant %s row %lld diverges from the "
                     "reference prediction\n",
                     w.name.c_str(), static_cast<long long>(p.row));
      }
    }
  }
  fleet_server.ScaleTick();

  std::printf("answered %d requests (%llu shed, %llu rejected, %d failed "
              "responses)\n",
              answered, static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(rejected), failed);
  if (verify) {
    std::printf("verified %d responses, %d wrong answers\n", answered - failed,
                wrong);
  }
  if (injector != nullptr) {
    std::printf("faults injected: %lld\n",
                static_cast<long long>(injector->total_injected()));
  }

  fleet::FleetStatsSnapshot snapshot = fleet_server.Snapshot();
  uint64_t shed_quota = 0, shed_overload = 0;
  for (const fleet::TenantStatsSnapshot& tenant : snapshot.tenants) {
    shed_quota += tenant.shed_quota;
    shed_overload += tenant.shed_overload;
  }
  std::printf("%s\n", snapshot.ToTable().c_str());
  std::printf("fleet shed total: %llu (quota %llu, overload %llu)\n",
              static_cast<unsigned long long>(shed_quota + shed_overload),
              static_cast<unsigned long long>(shed_quota),
              static_cast<unsigned long long>(shed_overload));

  GMP_CHECK_OK(fleet_server.Shutdown());
  if (!metrics_out.empty()) {
    if (!WriteMetricsFile(&metrics, metrics_out)) return 1;
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!WriteTextFile(trace_out, recorder.ToChromeJson())) return 1;
    std::printf("trace written to %s (%zu spans)\n", trace_out.c_str(),
                recorder.size());
  }
  if (wrong > 0) return 1;
  return failed > 0 ? 3 : 0;
}

// Smoke the serving path against a saved model: load it into a registry,
// start the micro-batching server, push synthetic single-row requests, and
// print the ServeStats table.
int ServeCommand(int argc, char** argv) {
  int num_requests = 200, devices = 1;
  bool chaos = false, verify = false;
  uint64_t chaos_seed = 0;
  ServeOptions options;
  std::string model_path, metrics_out, trace_out, fleet_config;
  for (int arg = 0; arg < argc; ++arg) {
    const int cascade_arg =
        ParseCascadeArg(argc, argv, &arg, &options.predict.cascade);
    if (cascade_arg != 0) {
      if (cascade_arg < 0) return Usage();
    } else if (std::strcmp(argv[arg], "-n") == 0 && arg + 1 < argc) {
      num_requests = std::atoi(argv[++arg]);
    } else if (std::strcmp(argv[arg], "-w") == 0 && arg + 1 < argc) {
      options.num_workers = std::atoi(argv[++arg]);
    } else if (std::strcmp(argv[arg], "-b") == 0 && arg + 1 < argc) {
      options.batching.max_batch_size = std::atoi(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--host-threads") == 0 && arg + 1 < argc) {
      const int host_threads = std::atoi(argv[++arg]);
      if (host_threads < 1) return Usage();
      options.executor_model.host_threads = host_threads;
    } else if (std::strcmp(argv[arg], "--chaos-seed") == 0 && arg + 1 < argc) {
      chaos = true;
      chaos_seed = static_cast<uint64_t>(std::atoll(argv[++arg]));
    } else if (std::strcmp(argv[arg], "--devices") == 0) {
      if (!ParseDevicesFlag(argc, argv, &arg, &devices)) return Usage();
    } else if (std::strcmp(argv[arg], "--metrics-out") == 0 && arg + 1 < argc) {
      metrics_out = argv[++arg];
    } else if (std::strcmp(argv[arg], "--trace-out") == 0 && arg + 1 < argc) {
      trace_out = argv[++arg];
    } else if (std::strcmp(argv[arg], "--fleet-config") == 0 && arg + 1 < argc) {
      fleet_config = argv[++arg];
    } else if (std::strcmp(argv[arg], "--verify") == 0) {
      verify = true;
    } else if (argv[arg][0] == '-') {
      return Usage();
    } else if (model_path.empty()) {
      model_path = argv[arg];
    } else {
      return Usage();
    }
  }
  if (num_requests <= 0) return Usage();
  if (!fleet_config.empty()) {
    // Fleet mode takes its models from the config file; a positional model
    // (and --verify outside fleet mode) is a usage error.
    if (!model_path.empty()) return Usage();
    return FleetServeCommand(fleet_config, num_requests, options, chaos,
                             chaos_seed, devices, metrics_out, trace_out,
                             verify);
  }
  if (model_path.empty() || verify) return Usage();

  ModelRegistry registry;
  auto version = registry.LoadFromFile("default", model_path);
  if (!version.ok()) {
    std::fprintf(stderr, "error: %s\n", version.status().ToString().c_str());
    return 1;
  }
  auto handle = registry.Get("default");
  GMP_CHECK_OK(handle.status());
  const MpSvmModel& model = *handle->model;
  std::printf("serving %s: %d classes, %lld SVMs, %lld pooled SVs\n",
              model_path.c_str(), model.num_classes,
              static_cast<long long>(model.svms.size()),
              static_cast<long long>(model.support_vectors.rows()));

  // Synthetic queries in the model's own feature space.
  SyntheticSpec spec;
  spec.name = "svm_tool-serve";
  spec.num_classes = model.num_classes;
  spec.cardinality = num_requests;
  spec.dim = std::max<int64_t>(model.support_vectors.cols(), 1);
  spec.density = 0.5;
  spec.seed = 99;
  auto queries = GenerateSynthetic(spec);
  if (!queries.ok()) {
    std::fprintf(stderr, "error: %s\n", queries.status().ToString().c_str());
    return 1;
  }
  const CsrMatrix& rows = queries->features();

  obs::MetricsRegistry metrics;
  obs::TraceRecorder recorder;
  options.metrics = &metrics;
  if (!trace_out.empty()) options.trace = &recorder;
  std::unique_ptr<fault::FaultInjector> injector;
  if (chaos) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::Chaos(chaos_seed), &metrics);
    options.fault = injector.get();
    options.max_request_retries = 3;
    registry.SetFaultInjector(injector.get());
    std::printf("chaos enabled (seed %llu)\n",
                static_cast<unsigned long long>(chaos_seed));
  }

  // --devices > 1 serves through the replica router (one InferenceServer per
  // device, least-loaded dispatch); --devices 1 keeps the direct server.
  std::unique_ptr<InferenceServer> server;
  std::unique_ptr<ReplicaRouter> router;
  if (devices > 1) {
    RouterOptions router_options;
    router_options.serve = options;
    router_options.devices.assign(static_cast<size_t>(devices),
                                  options.executor_model);
    router_options.metrics = &metrics;
    router = std::make_unique<ReplicaRouter>(&registry, router_options);
    GMP_CHECK_OK(router->Start());
    std::printf("routing across %d replicas (%d workers each)\n", devices,
                options.num_workers);
  } else {
    server = std::make_unique<InferenceServer>(&registry, options);
    GMP_CHECK_OK(server->Start());
  }
  std::vector<std::future<Result<PredictResponse>>> futures;
  futures.reserve(static_cast<size_t>(num_requests));
  for (int r = 0; r < num_requests; ++r) {
    const int64_t row = r % rows.rows();
    auto submitted =
        router != nullptr
            ? router->Submit(rows.RowIndices(row), rows.RowValues(row))
            : server->Submit(rows.RowIndices(row), rows.RowValues(row));
    if (!submitted.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   submitted.status().ToString().c_str());
      return 1;
    }
    futures.push_back(std::move(*submitted));
  }
  // Every accepted request must resolve to a terminal Result; under chaos
  // some may carry failure statuses (counted, not fatal), but a future that
  // never resolves would hang right here — that is the regression this
  // command exists to catch.
  int answered = 0, failed = 0;
  for (auto& f : futures) {
    auto response = f.get();
    ++answered;
    if (!response.ok()) {
      ++failed;
      if (!chaos) {
        std::fprintf(stderr, "request failed: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
    }
  }
  std::printf("answered %d/%d requests (%d failed responses)\n", answered,
              static_cast<int>(futures.size()), failed);
  if (injector != nullptr) {
    std::printf("faults injected: %lld\n",
                static_cast<long long>(injector->total_injected()));
  }
  if (router != nullptr) {
    for (int r = 0; r < router->num_replicas(); ++r) {
      std::printf("replica %d: %lld requests routed\n%s\n", r,
                  static_cast<long long>(router->routed(r)),
                  router->replica(r)->stats().Snapshot().ToTable().c_str());
    }
    GMP_CHECK_OK(router->Shutdown());
  } else {
    std::printf("%s\n", server->stats().Snapshot().ToTable().c_str());
    GMP_CHECK_OK(server->Shutdown());
  }
  if (!metrics_out.empty()) {
    if (!WriteMetricsFile(&metrics, metrics_out)) return 1;
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!WriteTextFile(trace_out, recorder.ToChromeJson())) return 1;
    std::printf("trace written to %s (%zu spans)\n", trace_out.c_str(),
                recorder.size());
  }
  return failed > 0 ? 3 : 0;
}

// Writes a drift delta against a LibSVM base: relabels N rows of class
// --from to class --to (the incumbent model keeps predicting the old label on
// those rows, so serving them drives the Brier window up) and optionally
// appends N copies of class --to rows labeled --from. Row choices come from a
// seeded Rng, so the same flags always produce the same delta bytes.
int MakeDeltaCommand(int argc, char** argv) {
  int relabel = 32, add = 0, from = 0, to = 1;
  uint64_t seed = 1;
  std::string positional[2];
  int npos = 0;
  for (int arg = 0; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--relabel") == 0 && arg + 1 < argc) {
      relabel = std::atoi(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--add") == 0 && arg + 1 < argc) {
      add = std::atoi(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--from") == 0 && arg + 1 < argc) {
      from = std::atoi(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--to") == 0 && arg + 1 < argc) {
      to = std::atoi(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--seed") == 0 && arg + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++arg]));
    } else if (argv[arg][0] == '-') {
      return Usage();
    } else if (npos < 2) {
      positional[npos++] = argv[arg];
    } else {
      return Usage();
    }
  }
  if (npos != 2 || relabel < 0 || add < 0 || relabel + add == 0) return Usage();
  auto file = ReadLibsvmFile(positional[0]);
  if (!file.ok()) {
    std::fprintf(stderr, "error: %s\n", file.status().ToString().c_str());
    return 1;
  }
  const Dataset& base = file->dataset;
  if (from < 0 || from >= base.num_classes() || to < 0 ||
      to >= base.num_classes() || from == to) {
    std::fprintf(stderr, "error: --from/--to must be distinct classes in "
                 "[0, %d)\n", base.num_classes());
    return 2;
  }

  online::DatasetDelta delta;
  delta.base_fingerprint = online::DatasetFingerprint(base);
  delta.num_classes = base.num_classes();
  Rng rng(seed);

  const std::vector<int32_t>& from_rows = base.ClassRows(from);
  if (relabel > static_cast<int>(from_rows.size())) {
    std::fprintf(stderr, "error: class %d has only %zu rows to relabel\n",
                 from, from_rows.size());
    return 1;
  }
  // Sample without replacement: shuffle a copy, take a prefix, keep ops in
  // ascending row order so the delta text is canonical.
  std::vector<int32_t> shuffled = from_rows;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
  }
  shuffled.resize(static_cast<size_t>(relabel));
  std::sort(shuffled.begin(), shuffled.end());
  for (int32_t row : shuffled) {
    online::DeltaOp op;
    op.kind = online::DeltaOp::Kind::kRelabel;
    op.row = row;
    op.old_label = from;
    op.new_label = to;
    delta.ops.push_back(std::move(op));
  }

  const std::vector<int32_t>& to_rows = base.ClassRows(to);
  for (int a = 0; a < add; ++a) {
    const int32_t source =
        to_rows[static_cast<size_t>(rng.UniformInt(to_rows.size()))];
    online::DeltaOp op;
    op.kind = online::DeltaOp::Kind::kAdd;
    op.label = from;
    const auto idx = base.features().RowIndices(source);
    const auto val = base.features().RowValues(source);
    op.indices.assign(idx.begin(), idx.end());
    op.values.assign(val.begin(), val.end());
    delta.ops.push_back(std::move(op));
  }

  if (Status saved = online::SaveDelta(delta, positional[1]); !saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("delta written to %s: %d relabels %d->%d, %d adds, base "
              "fingerprint %llu\n",
              positional[1].c_str(), relabel, from, to, add,
              static_cast<unsigned long long>(delta.base_fingerprint));
  return 0;
}

// The continual-learning loop end to end (docs/online.md): register the
// model, process every *.delta in --delta-dir in sorted filename order,
// serve seeded traffic, and when the drift window arms, warm-retrain the
// affected pairs across the cluster, canary the candidate, and hot-swap it
// through the registry's validator/fault gate. --chaos-seed injects faults
// into every phase; the swapped model bytes are identical to the clean run's
// at any --devices / --host-threads combination.
int RetrainDaemonCommand(int argc, char** argv) {
  int host_threads = 1, devices = 1;
  int64_t requests = 96;
  double brier_threshold = 0.3, canary_fraction = 0.25;
  // A retrain absorbing real drift legitimately moves probabilities all the
  // way on the relabeled rows, so the tool's default disagreement gate is
  // wide open and the candidate-vs-incumbent Brier check does the guarding;
  // tighten with --canary-tolerance to gate on raw disagreement too.
  double canary_tolerance = 1.0;
  bool chaos = false;
  uint64_t chaos_seed = 0;
  std::string delta_dir, metrics_out, model_out;
  std::string positional[2];
  int npos = 0;
  for (int arg = 0; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--delta-dir") == 0 && arg + 1 < argc) {
      delta_dir = argv[++arg];
    } else if (std::strcmp(argv[arg], "--requests") == 0 && arg + 1 < argc) {
      requests = std::atoll(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--brier-threshold") == 0 &&
               arg + 1 < argc) {
      brier_threshold = std::atof(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--canary-fraction") == 0 &&
               arg + 1 < argc) {
      canary_fraction = std::atof(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--canary-tolerance") == 0 &&
               arg + 1 < argc) {
      canary_tolerance = std::atof(argv[++arg]);
    } else if (std::strcmp(argv[arg], "--host-threads") == 0 && arg + 1 < argc) {
      host_threads = std::atoi(argv[++arg]);
      if (host_threads < 1) return Usage();
    } else if (std::strcmp(argv[arg], "--devices") == 0) {
      if (!ParseDevicesFlag(argc, argv, &arg, &devices)) return Usage();
    } else if (std::strcmp(argv[arg], "--chaos-seed") == 0 && arg + 1 < argc) {
      chaos = true;
      chaos_seed = static_cast<uint64_t>(std::atoll(argv[++arg]));
    } else if (std::strcmp(argv[arg], "--metrics-out") == 0 && arg + 1 < argc) {
      metrics_out = argv[++arg];
    } else if (std::strcmp(argv[arg], "--model-out") == 0 && arg + 1 < argc) {
      model_out = argv[++arg];
    } else if (argv[arg][0] == '-') {
      return Usage();
    } else if (npos < 2) {
      positional[npos++] = argv[arg];
    } else {
      return Usage();
    }
  }
  if (npos != 2 || delta_dir.empty()) return Usage();

  auto file = ReadLibsvmFile(positional[0]);
  if (!file.ok()) {
    std::fprintf(stderr, "error: %s\n", file.status().ToString().c_str());
    return 1;
  }
  auto model = LoadModel(positional[1]);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  if (model->num_classes != file->dataset.num_classes()) {
    std::fprintf(stderr, "error: model has %d classes, data has %d\n",
                 model->num_classes, file->dataset.num_classes());
    return 1;
  }

  obs::MetricsRegistry metrics;
  ExecutorModel device_model = ExecutorModel::TeslaP100();
  device_model.host_threads = host_threads;
  cluster::SimCluster cluster_devices =
      cluster::SimCluster::Homogeneous(devices, device_model);
  ModelRegistry registry;

  online::RetrainDaemonOptions options;
  options.delta_dir = delta_dir;
  options.requests_per_round = requests;
  options.drift.brier_threshold = brier_threshold;
  options.drift.metrics = &metrics;
  options.canary.traffic_fraction = canary_fraction;
  options.canary.tolerance = canary_tolerance;
  options.metrics = &metrics;
  // Warm retraining reuses the solver configuration the saved model carries;
  // everything else (eps, working set) stays at the defaults, identically on
  // every run, which is all byte-identity needs.
  options.retrain.train.c = model->c;
  options.retrain.train.kernel = model->kernel;
  options.retrain.train.host_threads = host_threads;
  if (chaos) {
    options.fault = fault::FaultPlan::Chaos(chaos_seed);
    options.retrain.fault = fault::FaultPlan::Chaos(chaos_seed);
    options.retrain.fault_metrics = &metrics;
    std::printf("chaos enabled (seed %llu)\n",
                static_cast<unsigned long long>(chaos_seed));
  }

  online::RetrainDaemon daemon(options, &registry, &cluster_devices);
  auto report = daemon.Run(file->dataset, std::move(*model));
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "deltas: %lld applied, %lld skipped\n"
      "served: %lld requests (%lld dropped), %lld canary-sampled\n"
      "drift: %lld arms (window brier %.4f), %lld retrains\n"
      "pairs: %lld retrained, %lld carried, %lld retries\n"
      "swaps: %lld committed, %lld rollbacks (final version %lld)\n",
      static_cast<long long>(report->deltas_applied),
      static_cast<long long>(report->deltas_skipped),
      static_cast<long long>(report->requests_served),
      static_cast<long long>(report->requests_dropped),
      static_cast<long long>(report->canary_sampled),
      static_cast<long long>(report->drift_arms), report->final_window_brier,
      static_cast<long long>(report->retrains),
      static_cast<long long>(report->pairs_retrained),
      static_cast<long long>(report->pairs_carried),
      static_cast<long long>(report->pair_retries),
      static_cast<long long>(report->swaps_committed),
      static_cast<long long>(report->rollbacks),
      static_cast<long long>(report->final_model_version));
  if (report->delta_parse_retries + report->canary_retries +
          report->swap_retries > 0) {
    std::printf("recovery: %lld delta-parse retries, %lld canary retries, "
                "%lld swap retries\n",
                static_cast<long long>(report->delta_parse_retries),
                static_cast<long long>(report->canary_retries),
                static_cast<long long>(report->swap_retries));
  }
  if (!model_out.empty()) {
    auto handle = registry.Get("online");
    GMP_CHECK_OK(handle.status());
    GMP_CHECK_OK(SaveModel(*handle->model, model_out));
    std::printf("final model written to %s\n", model_out.c_str());
  }
  if (!metrics_out.empty()) {
    if (!WriteMetricsFile(&metrics, metrics_out)) return 1;
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  return report->requests_dropped > 0 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Global --simd flag: accepted anywhere on the command line (before or
  // after the subcommand), stripped from argv before subcommand parsing so
  // the per-command loops never see it. Sets the process-wide active tier.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strncmp(argv[i], "--simd=", 7) == 0) {
      value = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--simd") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --simd needs a value\n");
        return 2;
      }
      value = argv[++i];
    } else {
      argv[kept++] = argv[i];
      continue;
    }
    Result<simd::SimdTier> tier = simd::TierFromString(value);
    if (!tier.ok()) {
      std::fprintf(stderr, "error: %s\n", tier.status().message().c_str());
      return 2;
    }
    Status set = simd::SetActiveTier(*tier);
    if (!set.ok()) {
      std::fprintf(stderr, "error: %s\n", set.message().c_str());
      return 2;
    }
  }
  argc = kept;

  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "bench-env") == 0) {
    if (argc != 2) return Usage();
    std::printf("%s\n", simd::DescribeEnvironment().c_str());
    const dist::LinkModel intra = dist::NvlinkClassLink();
    const dist::LinkModel inter = dist::NetworkClassLink();
    std::printf(
        "node topology: single node by default; train --nodes N groups\n"
        "  --devices into N contiguous nodes (docs/cost_model.md)\n"
        "  intra-node link: %.1f GB/s, %.1f us latency (NVLink class)\n"
        "  inter-node link: %.1f GB/s, %.1f us latency (network class;\n"
        "  override with --link-gbps / --link-latency-us)\n",
        intra.bandwidth_bytes_per_sec / 1e9, intra.latency_seconds * 1e6,
        inter.bandwidth_bytes_per_sec / 1e9, inter.latency_seconds * 1e6);
    return 0;
  }
  if (std::strcmp(argv[1], "train") == 0) return TrainCommand(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "predict") == 0) return PredictCommand(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "scale") == 0) return ScaleCommand(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "cv") == 0) return CvCommand(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "grid") == 0) return GridCommand(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "serve") == 0) return ServeCommand(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "make-delta") == 0) {
    return MakeDeltaCommand(argc - 2, argv + 2);
  }
  if (std::strcmp(argv[1], "retrain-daemon") == 0) {
    return RetrainDaemonCommand(argc - 2, argv + 2);
  }
  return Usage();
}
