// SIMD kernel tier: runtime-dispatched vector implementations of the host
// hot paths (sparse scatter/gather dots, the Gaussian kernel transform,
// pairwise coupling, Platt sigmoids) with a bitwise-reproducibility contract.
//
// Determinism contract (docs/performance.md, "SIMD tier"):
//   * Every reduction uses one canonical blocked-tree order with block size
//     8, independent of the executing tier's lane width. For a block of
//     products c0..c7:
//         s_j = c_j + c_{j+4}   (j = 0..3)
//         block = (s0 + s2) + (s1 + s3)
//     and block sums are accumulated left to right into a scalar; the
//     trailing <8 elements are added sequentially. The scalar tier computes
//     this exact tree with explicit temporaries; AVX2 (4-lane) reaches the
//     same tree with vector adds + a fixed horizontal schedule. No fused
//     multiply-add anywhere, in any tier.
//   * Elementwise transforms use the deterministic math in simd_math.h —
//     identical per-lane IEEE op sequences in every tier.
// Consequence: models, executor counters, charges and traces are
// byte-identical across tiers, on top of the existing identity at any
// --host-threads x --devices topology.
//
// Selection: DetectBestTier() probes the CPU once (AVX2 on x86-64, scalar
// otherwise, aarch64 included); the process-wide active tier defaults to it
// and can be overridden with SetActiveTier (the `svm_tool --simd=` flag).
// That tier is the only selector: every hot path runs OpsFor(kAuto).
// Explicit tables (OpsFor(kScalar)) are for benches and tests that run one
// kernel on two tiers.

#ifndef GMPSVM_SIMD_SIMD_H_
#define GMPSVM_SIMD_SIMD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace gmpsvm::obs {
class MetricsRegistry;
}  // namespace gmpsvm::obs

namespace gmpsvm::simd {

enum class SimdTier {
  kAuto = 0,    // resolve to the process-wide active tier
  kScalar = 1,  // portable reference (the canonical arithmetic definition)
  kAvx2 = 2,    // x86-64 AVX2, 4 doubles per vector
};

// Rows of the narrowest gather_dot_panel and of the narrower Platt and
// coupling panel: one AVX2 vector. A constant of the contract, not a
// tuning knob.
inline constexpr int kPanelRows = 4;

// Rows of the wider Platt and coupling panel: two AVX2 vectors per cell. A
// cell of four vectors measured about 4x slower per panel, so coupling
// stops here.
inline constexpr int kWidePanelRows = 2 * kPanelRows;

// A 32-byte-aligned interleaved panel of `cols` columns (`rows` doubles
// each) inside `storage`, which grows as needed; new entries are zero and
// existing entries are kept, though a growth may move them to a different
// panel offset.
double* AlignedPanel(std::vector<double>& storage, int64_t cols,
                     int rows = kPanelRows);

// Function table for one tier. All routines are pure host computation; the
// caller owns cost accounting. Pointers are always non-null within a
// supported tier's table.
struct SimdOps {
  const char* name = "scalar";
  int lane_width = 1;  // doubles per vector register

  // sum_p vals[p] * dense[idx[p]] in the canonical blocked-tree order.
  double (*gather_dot)(const double* vals, const int32_t* idx, int64_t n,
                       const double* dense) = nullptr;

  // gather_dot against `rows` dense rows at once, `rows` being 4, 8 or 16.
  // The rows are stored interleaved, panel[c * rows + r] holding row r's
  // column c, so each nonzero (idx[p], vals[p]) is loaded once and feeds
  // every row of the panel: AVX2 keeps one accumulator vector per 4 rows,
  // all fed by one broadcast and one index load per nonzero. The canonical
  // tree runs per row, with one row per lane instead of one product per
  // lane (the scalar tier runs it row by row at stride `rows`), so out[r]
  // is bitwise gather_dot(vals, idx, n, row r) for r < rows. `panel` must be
  // 32-byte aligned.
  void (*gather_dot_panel)(const double* vals, const int32_t* idx, int64_t n,
                           const double* panel, int rows,
                           double* out) = nullptr;

  // Contiguous sum_p a[p] * b[p], same reduction tree as gather_dot (the
  // two agree bitwise when idx is the identity).
  double (*dot)(const double* a, const double* b, int64_t n) = nullptr;

  // In-place Gaussian transform over one kernel row:
  //   out[j] = Exp(-gamma * ((norm_row + norms[targets[j]]) - 2*out[j]))
  void (*gaussian_transform)(double* out, const double* norms,
                             const int32_t* targets, int64_t n,
                             double norm_row, double gamma) = nullptr;

  // Coupling fixed-point elementwise update (LibSVM iteration). The divide
  // by (1 + diff) is computed as one scalar reciprocal followed by per-lane
  // multiplies — divider throughput does not scale with vector width, so a
  // per-lane divide would cap this op at scalar speed:
  //   inv = 1 / (1 + diff);  qp[j] = (qp[j] + diff*qrow[j]) * inv;
  //   p[j] *= inv
  void (*coupling_update)(double* qp, double* p, const double* qrow,
                          int64_t n, double diff) = nullptr;

  // y[j] -= factor * x[j] (Gaussian-elimination row update).
  void (*axpy_neg)(double* y, const double* x, int64_t n,
                   double factor) = nullptr;

  // out[j] = -(a[j] * b[j]) (coupling Q-matrix off-diagonal row fill).
  void (*mul_neg)(double* out, const double* a, const double* b,
                  int64_t n) = nullptr;

  // Pairwise coupling by Gaussian elimination (Equation 15) for `rows`
  // instances at once (kPanelRows or kWidePanelRows), one per lane. `pairs`
  // holds k(k-1)/2 pair probabilities per lane, pair-major in the model's
  // pair order (0,1), (0,2), ..., (1,2), ..., each pair's lanes at lane
  // stride `stride` >= rows: pairs[pi * stride + lane] = P(s | {s,t}) for
  // pair pi = (s,t), so a panel can be read in place from a wider one. Each
  // lane runs the per-row solve of CoupleProbabilities operation for
  // operation: Q_st = Q_ts = -(p(1-p)), Q_ss summed in ascending u, its own
  // first-strict-maximum pivot with a physical row swap, the factor == 0
  // skip, the canonical block-8 dot in back substitution, then clamp and
  // normalise. Writes lane L's probabilities to out[L * k + c] and returns a
  // bit mask of the lanes whose rows must be solved again per row: a NaN
  // estimate, a pivot below 1e-12 (the ridge retry) or a sum that is not
  // positive. Their out rows are unspecified. `work` holds
  // CouplePanelCells(k) cells of `rows` doubles each, 32-byte aligned (see
  // AlignedPanel). The scalar tier has no panel solve and returns every
  // lane, so its rows run the per-row solve.
  int (*couple_panel)(const double* pairs, int64_t stride, int rows, int k,
                      double* work, double* out) = nullptr;

  // Platt's sigmoid (Equation 12) over a panel of `rows` lanes (kPanelRows
  // or kWidePanelRows), in place: `pairs` holds num_pairs decision values
  // per lane without their bias, pair-major at lane stride `stride` as
  // couple_panel reads them, and `table` holds each pair's (bias, A, B).
  // pairs[pi * stride + lane] becomes PlattFromArg((bias + v) * A + B),
  // bitwise SigmoidParams::Probability(bias + v) on every tier.
  void (*platt_panel)(double* pairs, int64_t stride, int rows,
                      const double* table, int64_t num_pairs) = nullptr;

  // dst[c * dst_stride + r] = src[r * src_stride + c] for r < rows and
  // c < cols: a block transpose, which AVX2 moves in 4 x 4 register tiles.
  // Data movement only, so every tier writes the same bits.
  void (*transpose)(const double* src, int64_t src_stride, int64_t rows,
                    int64_t cols, double* dst, int64_t dst_stride) = nullptr;
};

// Cells of couple_panel's work area: the k x (k+1) augmented matrix [Q | e]
// at leading dimension k+1, then the k-cell solution.
inline int64_t CouplePanelCells(int k) {
  return static_cast<int64_t>(k) * (k + 2);
}

// True if `tier` can execute on this CPU (kAuto and kScalar always can).
bool TierSupported(SimdTier tier);

// Best tier this CPU supports (never kAuto; probed once, then cached).
SimdTier DetectBestTier();

// Process-wide active tier, resolved (never kAuto). Defaults to
// DetectBestTier() on first use.
SimdTier ActiveTier();

// Overrides the active tier; kAuto restores hardware detection.
// kInvalidArgument if the CPU cannot execute `tier`.
Status SetActiveTier(SimdTier tier);

// The ops table for `tier`; kAuto resolves through ActiveTier(). The
// returned reference has static storage duration. Requesting an unsupported
// tier falls back to scalar (callers that must reject instead use
// TierSupported / SetActiveTier, which validate).
const SimdOps& OpsFor(SimdTier tier);

// Flag-value parsing: "auto", "scalar", "avx2".
Result<SimdTier> TierFromString(const std::string& name);
const char* TierName(SimdTier tier);

// Short human-readable CPU/tier description for `svm_tool bench-env` and
// bench JSON attribution, e.g. "isa=x86-64(avx2) active=avx2 lanes=4".
std::string DescribeEnvironment();

// ---------------------------------------------------------------------------
// Per-path dispatch accounting. The five instrumented paths:
enum class SimdPath {
  kBatchRowDots = 0,   // batched scatter-dot kernel rows (SpMM)
  kScatterRowDots,     // single-row scatter dots
  kKernelTransform,    // Gaussian elementwise transforms
  kCoupling,           // pairwise-coupling solves
  kPlatt,              // Platt sigmoids of full prediction panels
  kNumPaths,
};

const char* SimdPathName(SimdPath path);

// Monotonic wall-clock nanoseconds (steady_clock) for the nanos argument of
// RecordPath.
int64_t NowNanos();

// Records `calls` dispatched ops: their element count, flop estimate, and
// (optionally) wall nanoseconds. Wall time is only recorded at coarse call
// granularity (whole batched ops); fine-grained paths pass 0 and publish
// counters only. Thread-safe (relaxed atomics on process-wide counters);
// counter values are deterministic, the nanosecond totals are wall-clock
// diagnostics. Per-element callers sum their ops into PathCounts and record
// them once, which keeps the shared counters uncontended.
void RecordPath(SimdPath path, int64_t elements, double flops,
                int64_t nanos = 0, int64_t calls = 1);

// One path's ops, summed by a caller that records them in one RecordPath.
struct PathCounts {
  int64_t calls = 0;
  int64_t elements = 0;
  double flops = 0.0;

  void Add(int64_t op_elements, double op_flops) {
    ++calls;
    elements += op_elements;
    flops += op_flops;
  }
  void Record(SimdPath path) const {
    RecordPath(path, elements, flops, /*nanos=*/0, calls);
  }
};

// Adds wall time to a path without counting a call — for wrappers (e.g. the
// batched coupling entry point) timing work whose per-item counters were
// already recorded by an inner routine.
void RecordPathNanos(SimdPath path, int64_t nanos);

struct PathStatsSnapshot {
  int64_t calls = 0;
  int64_t elements = 0;
  double flops = 0.0;
  int64_t nanos = 0;
};
PathStatsSnapshot PathStats(SimdPath path);

// Publishes the per-path counters and effective-GFLOP/s gauges into
// `registry` under gmpsvm_simd_*, plus a gmpsvm_simd_active_tier info
// gauge. Counters are published as absolute totals (call once per dump).
void PublishMetrics(obs::MetricsRegistry* registry);

}  // namespace gmpsvm::simd

#endif  // GMPSVM_SIMD_SIMD_H_
