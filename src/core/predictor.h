// MP-SVM probability prediction (Sections 3.2 Phase (iii) and 3.3.3).
//
// Pipeline per tile of test instances:
//   1. decision values v = sum_m coef_m K(x, sv_m) + b for every binary SVM
//      (Equation 11);
//   2. local probabilities r_st = sigmoid_st(v) (Equation 12);
//   3. multi-class coupling (Equation 14/15).
//
// Two kernel-value strategies:
//   * shared (GMP-SVM): compute K(test_tile, SV_pool) ONCE; every binary SVM
//     gathers the values of its support vectors from that block. A support
//     vector referenced by k-1 SVMs costs one kernel evaluation instead of
//     k-1 (support-vector + kernel-value sharing).
//   * per-SVM (GPU baseline): each binary SVM recomputes kernel values for
//     its own support-vector list, one SVM at a time.
// Tiles are sized so the kernel block fits the device-memory budget.

#ifndef GMPSVM_CORE_PREDICTOR_H_
#define GMPSVM_CORE_PREDICTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/stopwatch.h"
#include "core/model.h"
#include "device/executor.h"
#include "prob/pairwise_coupling.h"
#include "sparse/csr_matrix.h"

namespace gmpsvm {

class KernelComputer;

// One sparse instance given as parallel index/value arrays (0-based, strictly
// increasing indices). The backing storage must outlive the call it is
// passed to.
struct SparseRowView {
  std::span<const int32_t> indices;
  std::span<const double> values;
};

// Cross-model kernel-value cache consulted by the shared-kernel predict path.
// An implementation (the fleet layer's SV store) maps each pool column of the
// model it was bound to onto a global support-vector identity, so a kernel
// value computed while serving one model can be served from the cache to any
// co-resident model referencing the same support vector — Section 3.3.3's
// sharing applied across models. Because a kernel value is a pure function of
// (query row, SV row, kernel params) and misses are computed through the same
// code path as the uncached block, probabilities stay byte-identical whether
// a cache is attached or not, at any capacity. Implementations must be
// thread-safe (worker threads share one store).
class PredictionKernelCache {
 public:
  virtual ~PredictionKernelCache() = default;

  // Fills out[j] with the cached K(row, pool[j]) and sets hit[j] = 1 for
  // every pool column the cache holds; entries it does not hold are left
  // untouched with hit[j] == 0. `out` and `hit` have one slot per pool row
  // of the bound model. Returns the number of hits.
  virtual int64_t Gather(const SparseRowView& row, std::span<double> out,
                         std::span<uint8_t> hit) = 0;

  // Offers the completed row back after the misses were computed: values[j]
  // holds K(row, pool[j]) for every j, and hit[j] is the mask Gather
  // returned (0-entries are fresh values the cache may insert).
  virtual void Commit(const SparseRowView& row,
                      std::span<const double> values,
                      std::span<const uint8_t> hit) = 0;
};

// Prediction-time class-elimination cascade (DCSVM-style; docs/cascade.md).
// In kEliminate mode an elimination stage scans pairs most-discriminative-
// first (the model's PairCascadeStats order), evaluates at most `budget`
// binary SVMs per row, and eliminates classes whose accumulated pairwise
// loss crosses `elimination_threshold`; exact Wu coupling then runs on the
// surviving class subset only. Rows whose coupled survivor margin falls
// inside `ambiguity_band` are recomputed through the full exact pipeline
// (bit-identical to kExact for those rows). kExact is byte-for-byte the
// pre-cascade predictor.
struct CascadeOptions {
  enum class Mode { kExact, kEliminate };
  Mode mode = Mode::kExact;

  // Elimination-stage budget: binary-SVM evaluations per row. 0 sizes it
  // automatically (4k evaluations, capped at the pair count). Completing the
  // surviving clique before coupling may evaluate beyond the budget.
  int budget = 0;

  // A class is eliminated once its accumulated loss reaches this value. Each
  // evaluated pair (s,t) with local probability r = P(s | {s,t}) adds 1 - r
  // to class s and r to class t, so the default needs strictly more than one
  // decisively-lost pair before a class drops out.
  double elimination_threshold = 1.0;

  // Exact-fallback guard: rows whose top-1/top-2 coupled probability margin
  // is below this band rerun the full exact pipeline. 1.0 forces the exact
  // path for every row; 0 never falls back.
  double ambiguity_band = 0.05;

  // kInvalidArgument naming the offending field, or OK.
  Status Validate() const;
};

struct PredictOptions {
  // How the final label is produced:
  //   kProbability — sigmoid + pairwise coupling, label = argmax p (the
  //                  MP-SVM path; probabilities are calibrated);
  //   kVoting      — LibSVM's plain multi-class rule: each binary SVM votes
  //                  by the sign of its decision value; probabilities are
  //                  reported as vote fractions (NOT calibrated).
  enum class Decision { kProbability, kVoting };
  Decision decision = Decision::kProbability;

  // Shared kernel-value strategy (GMP-SVM) vs per-SVM recomputation
  // (GPU baseline / ablation).
  bool share_kernel_values = true;

  // Binary SVMs whose decision values are evaluated concurrently, on that
  // many SM-capped streams (GMP); 1 evaluates them one at a time (the
  // baseline).
  int max_concurrent_svms = 8;

  // Test instances per tile; 0 sizes tiles from the memory budget.
  int64_t tile_rows = 0;

  // Optional cross-model kernel-value cache, consulted only on the shared
  // path (share_kernel_values). Must outlive the call and be thread-safe.
  // Cached values are gathered instead of recomputed (counted as
  // kernel_values_reused on the executor); results are byte-identical with
  // or without it.
  PredictionKernelCache* kernel_cache = nullptr;

  CouplingOptions coupling;

  // Class-elimination cascade; the default (kExact) reproduces the full
  // pipeline bit for bit.
  CascadeOptions cascade;

  // Fail-fast validation, mirroring MpTrainOptions::Validate: checks every
  // field (including the nested cascade options) and returns
  // kInvalidArgument naming the first offending one. Every predictor entry
  // point and serve-option validation call this before doing work.
  Status Validate() const;
};

struct PredictResult {
  int64_t num_instances = 0;
  int num_classes = 0;

  // Row-major num_instances x num_classes coupled probabilities.
  std::vector<double> probabilities;

  // argmax-probability class per instance.
  std::vector<int32_t> labels;

  // Simulated seconds for the whole prediction.
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;

  // Attribution: "decision_values", "sigmoid", "coupling" (Figure 12), plus
  // "elimination" for the cascade's elimination stage.
  PhaseTimer phases;

  // Cascade accounting (kEliminate mode; all zero under kExact). Counts are
  // pure per-row functions of the inputs, so they are byte-identical at any
  // host-thread or device count.
  int64_t cascade_rows = 0;               // rows that ran the elimination stage
  int64_t cascade_fallback_rows = 0;      // rows rerun through the exact path
  int64_t cascade_pairs_evaluated = 0;    // elimination-stage binary evals
  int64_t cascade_classes_eliminated = 0; // summed over non-fallback rows

  double Probability(int64_t instance, int cls) const {
    return probabilities[static_cast<size_t>(instance) * num_classes + cls];
  }
};

class MpSvmPredictor {
 public:
  // The model must outlive the predictor and must not change while the
  // predictor is in use: the cascade's scan table and the squared norms of
  // the SV pool are computed from it here, once, so a predictor kept per
  // model (as the serving registry keeps one per version) pays for them
  // once.
  explicit MpSvmPredictor(const MpSvmModel* model);

  // Predicts coupled probabilities for every row of `test`. The host hot
  // paths run on the process-wide SIMD tier (simd::SetActiveTier); every
  // tier gives the same bytes.
  Result<PredictResult> Predict(const CsrMatrix& test, SimExecutor* executor,
                                const PredictOptions& options) const;

  // Predicts for an ad-hoc set of sparse rows (assembled into one tile
  // internally). This is the serving-layer entry point: a micro-batch of
  // coalesced single-row requests maps 1:1 onto `rows`, and row i's
  // probabilities are independent of which other rows share the batch —
  // identical bit-for-bit to Predict() on a matrix of the same rows. An
  // empty `rows` yields an empty result.
  Result<PredictResult> PredictRows(std::span<const SparseRowView> rows,
                                    SimExecutor* executor,
                                    const PredictOptions& options) const;

 private:
  // The two paths behind Predict, which has validated `options`, checked
  // the model against `test`, shipped both to the device, set up `result`
  // and sized the tiles. Each fills `result`'s probabilities, labels,
  // phases and cascade counts.
  Status PredictExact(const CsrMatrix& test, SimExecutor* executor,
                      const PredictOptions& options,
                      const KernelComputer& computer, int64_t tile_rows,
                      PredictResult& result) const;
  Status PredictCascade(const CsrMatrix& test, SimExecutor* executor,
                        const PredictOptions& options,
                        const KernelComputer& computer, int64_t tile_rows,
                        PredictResult& result) const;

  // One pair of the cascade's elimination scan: the class pair it decides,
  // so the scan skips dead pairs without touching their BinarySvmEntry.
  struct ScanEntry {
    int32_t class_s;
    int32_t class_t;
    int32_t pair;
  };

  const MpSvmModel* model_;
  // Every pair, most discriminative first (the model's PairCascadeStats
  // score, ties by pair index); pair-index order for models without stats.
  std::vector<ScanEntry> scan_;
  // AllRowSquaredNorms() of the model's SV pool, for every KernelComputer
  // a call builds.
  std::vector<double> sv_norms_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_CORE_PREDICTOR_H_
