// SIMD-tier microbenchmark: scalar reference vs the detected vector tier on
// the five instrumented host hot paths (src/simd/simd.h). For every path the
// two tiers must produce byte-identical outputs — any divergence is a hard
// failure (exit 1), because it breaks the repo-wide reproducibility
// contract. Speedups are wall-clock, best-of-N reps.
//
//   bench_simd [--reps=N] [--min-speedup=G] [--json=path]
//
// --min-speedup gates the geometric-mean speedup of the vector tier over
// scalar (CI passes 1.0: the detected tier must never lose to scalar);
// exit 1 when the gate fails. On a scalar-only CPU the vector tier IS
// scalar, every speedup is 1.0, and the gate passes trivially.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "prob/pairwise_coupling.h"
#include "simd/simd.h"
#include "sparse/csr_matrix.h"
#include "sparse/ops.h"

using namespace gmpsvm;  // NOLINT: bench brevity

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CsrMatrix RandomCsr(int64_t rows, int64_t cols, double density, uint64_t seed) {
  Rng rng(seed);
  CsrBuilder builder(cols);
  std::vector<int32_t> idx;
  std::vector<double> val;
  for (int64_t r = 0; r < rows; ++r) {
    idx.clear();
    val.clear();
    for (int32_t c = 0; c < cols; ++c) {
      if (rng.Bernoulli(density)) {
        idx.push_back(c);
        val.push_back(rng.Normal());
      }
    }
    builder.AddRow(idx, val);
  }
  return ValueOrDie(builder.Finish());
}

struct PathResult {
  std::string path;
  double scalar_ms = 0.0;
  double vector_ms = 0.0;
  bool identical = false;
  double speedup() const {
    return vector_ms > 0.0 ? scalar_ms / vector_ms : 1.0;
  }
};

// Runs `body(ops, out)` once per tier for identity, then best-of-`reps`
// timing per tier. `out` is the output buffer compared bitwise.
template <typename Body>
PathResult RunPath(const char* name, int reps, size_t out_size,
                   const Body& body) {
  const simd::SimdOps& scalar = simd::OpsFor(simd::SimdTier::kScalar);
  const simd::SimdOps& vector = simd::OpsFor(simd::SimdTier::kAuto);
  std::vector<double> out_scalar(out_size, 0.0), out_vector(out_size, 0.0);
  body(scalar, out_scalar.data());
  body(vector, out_vector.data());

  PathResult result;
  result.path = name;
  result.identical =
      out_size == 0 ||
      std::memcmp(out_scalar.data(), out_vector.data(),
                  out_size * sizeof(double)) == 0;
  result.scalar_ms = 1e300;
  result.vector_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    double t0 = NowMs();
    body(scalar, out_scalar.data());
    result.scalar_ms = std::min(result.scalar_ms, NowMs() - t0);
    t0 = NowMs();
    body(vector, out_vector.data());
    result.vector_ms = std::min(result.vector_ms, NowMs() - t0);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  double min_speedup = 0.0;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool valid = true;
    if (StartsWith(arg, "--reps=")) {
      valid = ParseInt32(arg.substr(7), &reps) && reps >= 1;
    } else if (StartsWith(arg, "--min-speedup=")) {
      valid = ParseDouble(arg.substr(14), &min_speedup) && min_speedup >= 0.0;
    } else if (StartsWith(arg, "--json=")) {
      json_out = arg.substr(7);
    } else {
      valid = false;
    }
    if (!valid) {
      std::fprintf(stderr,
                   "error: bad argument: %s\n"
                   "usage: %s [--reps=N] [--min-speedup=X] [--json=PATH]\n",
                   arg.c_str(), argv[0]);
      return 2;
    }
  }

  // The coupling fixture pins eps = 0 so every solve runs the full sweep
  // budget; silence the (expected) iteration-limit warning it triggers.
  SetLogLevel(LogLevel::kError);

  std::printf("bench_simd: %s\n", simd::DescribeEnvironment().c_str());

  // Fixtures sized so each path runs ~1ms+ per rep on scalar while staying
  // cache-resident (b is ~1 MB): the point is per-path kernel throughput,
  // not DRAM bandwidth, which no instruction set can increase.
  const CsrMatrix a = RandomCsr(128, 1024, 0.20, 1);
  const CsrMatrix b = RandomCsr(256, 1024, 0.15, 2);
  std::vector<int32_t> batch, targets;
  for (int32_t i = 0; i < 128; ++i) batch.push_back(i);
  for (int32_t i = 0; i < 256; ++i) targets.push_back(i);

  std::vector<PathResult> results;

  results.push_back(RunPath(
      "batch_row_dots", reps, batch.size() * targets.size(),
      [&](const simd::SimdOps& ops, double* out) {
        BatchRowDots2(a, batch, b, targets, out, nullptr, &ops);
      }));

  results.push_back(RunPath(
      "scatter_row_dots", reps, batch.size() * targets.size(),
      [&](const simd::SimdOps& ops, double* out) {
        for (size_t i = 0; i < batch.size(); ++i) {
          ScatterRowDots(a, batch[i], b, targets,
                         out + i * targets.size(), &ops);
        }
      }));

  {
    const int64_t n = 1 << 15;
    std::vector<double> dots(static_cast<size_t>(n)), norms(1024);
    std::vector<int32_t> tcols(static_cast<size_t>(n));
    Rng trng(4);
    for (auto& v : dots) v = trng.Normal();
    for (auto& v : norms) v = trng.Uniform(0.0, 4.0);
    for (size_t j = 0; j < tcols.size(); ++j) {
      tcols[j] = static_cast<int32_t>(j % 1024);
    }
    results.push_back(RunPath(
        "kernel_transform", reps, static_cast<size_t>(n),
        [&](const simd::SimdOps& ops, double* out) {
          for (int pass = 0; pass < 20; ++pass) {
            std::memcpy(out, dots.data(), dots.size() * sizeof(double));
            ops.gaussian_transform(out, norms.data(), tcols.data(), n, 1.3,
                                   0.4);
          }
        }));
  }

  {
    const int k = 96;
    Rng crng(5);
    std::vector<double> r(static_cast<size_t>(k) * k, 0.0);
    for (int s = 0; s < k; ++s) {
      for (int t = s + 1; t < k; ++t) {
        const double p = crng.Uniform(0.05, 0.95);
        r[static_cast<size_t>(s) * k + t] = p;
        r[static_cast<size_t>(t) * k + s] = 1.0 - p;
      }
    }
    const simd::SimdTier vector_tier = simd::ActiveTier();
    results.push_back(RunPath(
        "coupling", reps, static_cast<size_t>(k),
        [&](const simd::SimdOps& ops, double* out) {
          // The fifth path is the coupling fixed-point iteration
          // (LibSVM's multiclass_probability). eps = 0 pins every solve at
          // the 100-sweep floor so the row measures sustained sweep
          // throughput (Q·p matvec + elementwise update) instead of how
          // fast this particular fixture happens to converge (~3 sweeps,
          // which would mostly time the O(k^2) BuildQ setup). The
          // Gaussian-elimination solver's 4- and 8-row panel solve
          // (couple_panel) is held bitwise by simd_test, timed by
          // bench_micro's BM_CouplePanel and end to end by bench/e2e's
          // predict-largek. Coupling runs on the
          // process-wide tier, so the body switches it to the one under
          // test.
          GMP_CHECK_OK(simd::SetActiveTier(
              &ops == &simd::OpsFor(simd::SimdTier::kScalar)
                  ? simd::SimdTier::kScalar
                  : vector_tier));
          CouplingOptions opts;
          opts.method = CouplingMethod::kIterative;
          opts.eps = 0.0;
          for (int pass = 0; pass < 4; ++pass) {
            std::vector<double> p = ValueOrDie(CoupleProbabilities(r, k, opts));
            std::memcpy(out, p.data(), p.size() * sizeof(double));
          }
        }));
    GMP_CHECK_OK(simd::SetActiveTier(vector_tier));
  }

  {
    // The fifth path: Platt's sigmoid over one 8-row lane group of a k = 64
    // model's 2016 pairs, as exact prediction runs it before couple_panel.
    const int64_t pairs = 64 * 63 / 2;
    Rng prng(6);
    std::vector<double> table, dv;
    for (int64_t pi = 0; pi < pairs; ++pi) {
      table.insert(table.end(), {prng.Uniform(-1.0, 1.0),
                                 prng.Uniform(-4.0, -0.5),
                                 prng.Uniform(-0.5, 0.5)});
    }
    for (int64_t i = 0; i < pairs * simd::kWidePanelRows; ++i) {
      dv.push_back(prng.Uniform(-6.0, 6.0));
    }
    results.push_back(RunPath(
        "platt", reps, dv.size(),
        [&](const simd::SimdOps& ops, double* out) {
          for (int pass = 0; pass < 20; ++pass) {
            std::memcpy(out, dv.data(), dv.size() * sizeof(double));
            ops.platt_panel(out, simd::kWidePanelRows, simd::kWidePanelRows,
                            table.data(), pairs);
          }
        }));
  }

  bool identity_ok = true;
  double log_sum = 0.0;
  std::printf("%-18s %12s %12s %9s %9s\n", "path", "scalar_ms", "vector_ms",
              "speedup", "bitwise");
  for (const PathResult& pr : results) {
    identity_ok = identity_ok && pr.identical;
    log_sum += std::log(pr.speedup());
    std::printf("%-18s %12.3f %12.3f %8.2fx %9s\n", pr.path.c_str(),
                pr.scalar_ms, pr.vector_ms, pr.speedup(),
                pr.identical ? "ok" : "DIVERGED");
  }
  const double geomean = std::exp(log_sum / static_cast<double>(results.size()));
  std::printf("geomean speedup: %.2fx (%s vs scalar)\n", geomean,
              simd::OpsFor(simd::SimdTier::kAuto).name);

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << "{\n  \"bench\": \"bench_simd\",\n  \"env\": \""
        << simd::DescribeEnvironment() << "\",\n  \"reps\": " << reps
        << ",\n  \"geomean_speedup\": " << geomean << ",\n  \"rows\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const PathResult& pr = results[i];
      out << "    {\"path\": \"" << pr.path << "\", \"scalar_ms\": "
          << pr.scalar_ms << ", \"vector_ms\": " << pr.vector_ms
          << ", \"speedup\": " << pr.speedup() << ", \"bitwise_identical\": "
          << (pr.identical ? "true" : "false") << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("json written to %s\n", json_out.c_str());
  }

  if (!identity_ok) {
    std::fprintf(stderr, "FAIL: scalar and vector tiers diverged bitwise\n");
    return 1;
  }
  if (min_speedup > 0.0 && geomean < min_speedup) {
    std::fprintf(stderr, "FAIL: geomean speedup %.3f below gate %.3f\n",
                 geomean, min_speedup);
    return 1;
  }
  return 0;
}
