// Shared harness for the table/figure benchmarks.
//
// Every bench binary accepts:
//   --scale=<f>          multiply proxy dataset cardinalities (default 1.0)
//   --datasets=a,b,c     restrict to named datasets
//   --metrics-out=<path> dump the bench observability registry (Prometheus)
//   --trace-out=<path>   dump the merged Chrome trace of all runs
//   --json=<path>        dump machine-readable per-row results (sim + wall)
//   --host-threads=<n>   real worker threads for executor hot paths (wall
//                        clock only; sim seconds and models are byte-
//                        identical for every value — docs/performance.md)
//   --devices=<n>        simulated devices for cluster-aware benches (other
//                        benches record it as metadata only)
// and prints aligned tables matching the paper's rows. Times are reported in
// simulated seconds on the published cost models (see DESIGN.md); wall
// seconds are shown alongside as a diagnostic.

#ifndef GMPSVM_BENCH_BENCH_COMMON_H_
#define GMPSVM_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "baselines/libsvm_ref.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "data/synthetic.h"
#include "device/executor.h"
#include "metrics/report.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace gmpsvm::bench {

struct Args {
  double scale = 1.0;
  std::vector<std::string> datasets;  // empty = all
  std::string metrics_out;            // empty = no metrics dump
  std::string trace_out;              // empty = no trace dump
  std::string json_out;               // empty = no JSON dump
  int host_threads = 1;               // real threads for executor hot paths
  int devices = 1;                    // simulated devices (cluster benches)

  bool Selected(const std::string& name) const;
};

// Parses the shared flags. An unknown flag or a malformed or out-of-range
// number exits 2 with a usage line; --benchmark* flags pass through. As a
// side effect, --host-threads=<n> configures the executors MakeGpuExecutor /
// MakeCpuExecutor hand out.
Args ParseArgs(int argc, char** argv);

// One machine-readable result row for --json output. Sim seconds are the
// benchmarked quantity; wall seconds record what host parallelism changes.
struct JsonRow {
  std::string dataset;
  std::string impl;
  std::string model;  // sim-model name the row ran on (self-describing JSON)
  double train_sim = 0.0;
  double train_wall = 0.0;
  double predict_sim = 0.0;
  double predict_wall = 0.0;
};

// Writes `rows` to args.json_out as one JSON object with run metadata
// (bench name, scale, host_threads, devices) and rows[] each carrying
// dataset / impl / sim-model name, so BENCH_*.json files are comparable
// across runs without the producing command line; no-op when --json was not
// passed.
void WriteBenchJson(const Args& args, const std::string& bench_name,
                    const std::vector<JsonRow>& rows);

// Process-wide observability sinks for bench binaries. RunImpl publishes
// every run's device counters and train report into the registry (labeled
// {impl, dataset}) and records training spans into the trace.
obs::MetricsRegistry* BenchRegistry();
obs::TraceRecorder* BenchTrace();

// Writes the --metrics-out / --trace-out artifacts if requested; call at
// the end of a bench's main().
void DumpObservability(const Args& args);

// Returns the paper specs at the requested scale, filtered by `args`, and
// optionally restricted to binary / multiclass datasets.
enum class DatasetFilter { kAll, kBinaryOnly, kMulticlassOnly };
std::vector<SyntheticSpec> SelectSpecs(const Args& args,
                                       DatasetFilter filter = DatasetFilter::kAll);

// Scaled-world simulation: the proxy datasets shrink the paper's data by
// sigma = proxy_cardinality / paper_cardinality, so every resource the paper
// fixes in absolute units must shrink with it to preserve the operating
// regime (see DESIGN.md):
//   * row-count capacities (working set, buffer rows)        ~ sigma
//   * time granularity (kernel-launch / region overhead)     ~ sigma
//   * byte capacities (kernel caches, device memory budget)  ~ sigma^2
//     (a cached row is n values and the number of useful rows is ~n)
// Rates (flops/s, bandwidths) are physical constants and stay fixed.
double WorldScale(const SyntheticSpec& spec);

// Applies the sigma scaling to an executor model.
ExecutorModel ScaleModel(ExecutorModel model, double sigma);

// The five compared implementations of Tables 1 and 3.
enum class Impl {
  kLibsvmSingle,   // LibSVM without OpenMP
  kLibsvmOmp,      // LibSVM with OpenMP (40 threads)
  kGpuBaseline,    // Section 3.2
  kCmpSvm,         // GMP algorithm on the CPU model
  kGmpSvm,         // Section 3.3
};
const char* ImplName(Impl impl);

struct RunResult {
  double train_sim = 0.0;
  double predict_sim = 0.0;
  double train_wall = 0.0;
  double predict_wall = 0.0;
  double train_error = 0.0;
  double predict_error = 0.0;
  double last_bias = 0.0;  // bias of the last binary SVM (Table 4)
  std::string model_name;  // scaled sim-model the impl ran on
  MpTrainReport train_report;
  PhaseTimer predict_phases;
  MpSvmModel model;                  // the trained model (Table 4)
  std::vector<int32_t> test_labels;  // its test-set labels (Table 4)
};

// Trains and predicts with one implementation on generated train/test data.
Result<RunResult> RunImpl(Impl impl, const SyntheticSpec& spec,
                          const Dataset& train, const Dataset& test);

// GMP-SVM training options for a spec (paper defaults: buffer 1024 rows,
// q = 512 — scaled by sigma; clamped per problem size inside the solver).
MpTrainOptions GmpOptionsFor(const SyntheticSpec& spec);

// GPU-baseline options (classic SMO, 4 GB device kernel cache, scaled).
MpTrainOptions BaselineOptionsFor(const SyntheticSpec& spec);

// Per-spec executors with the sigma-scaled models.
SimExecutor MakeGpuExecutor(const SyntheticSpec& spec);
SimExecutor MakeCpuExecutor(const SyntheticSpec& spec, int num_threads);

// Formats seconds with 2-3 significant digits for table cells.
std::string Sec(double seconds);

// Formats a speedup ratio, e.g. "12.4x".
std::string Speedup(double ratio);

}  // namespace gmpsvm::bench

#endif  // GMPSVM_BENCH_BENCH_COMMON_H_
