#include "core/predictor.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"
#include "kernel/kernel_computer.h"

namespace gmpsvm {
namespace {

int32_t ArgMax(const double* p, int k) {
  return static_cast<int32_t>(std::max_element(p, p + k) - p);
}

// Per-row tail shared by the exact path (shared and per-SVM kernel values)
// and the cascade's exact fallback. `decision_value(pi)` is binary SVM pi's
// decision value for this row. Voting tallies their signs into `out` as vote
// fractions; otherwise each becomes a local probability (Equation 12) in the
// k x k `r` and the row is coupled (Equation 14/15) into `out`. `r` must be
// zero outside the model's pair cells; every call rewrites exactly those
// cells, so one scratch serves any number of rows. The coupling solve's wall
// time is added to `*coupling_nanos`; a failed solve returns its status
// prefixed with `row`.
template <typename DecisionValue>
Status FinishRow(const MpSvmModel& model, bool voting,
                 const CouplingOptions& coupling, int64_t row,
                 const DecisionValue& decision_value, std::vector<double>& r,
                 double* out, int64_t* coupling_nanos) {
  const int k = model.num_classes;
  if (voting) {
    // LibSVM's plain multi-class rule: the sign of each decision value votes.
    std::fill(out, out + k, 0.0);
    for (size_t pi = 0; pi < model.svms.size(); ++pi) {
      const BinarySvmEntry& svm = model.svms[pi];
      out[decision_value(pi) >= 0 ? svm.class_s : svm.class_t] += 1.0;
    }
    for (int c = 0; c < k; ++c) out[c] /= model.num_pairs();
    return Status::OK();
  }
  for (size_t pi = 0; pi < model.svms.size(); ++pi) {
    const BinarySvmEntry& svm = model.svms[pi];
    const double prob_s = svm.sigmoid.Probability(decision_value(pi));
    r[static_cast<size_t>(svm.class_s) * k + svm.class_t] = prob_s;
    r[static_cast<size_t>(svm.class_t) * k + svm.class_s] = 1.0 - prob_s;
  }
  const int64_t t0 = simd::NowNanos();
  Result<std::vector<double>> p = CoupleProbabilities(r, k, coupling);
  *coupling_nanos += simd::NowNanos() - t0;
  if (!p.ok()) return p.status().WithContext(StrPrintf("row %" PRId64, row));
  std::copy(p.value().begin(), p.value().end(), out);
  return Status::OK();
}

}  // namespace

Status CascadeOptions::Validate() const {
  if (budget < 0) {
    return Status::InvalidArgument(
        StrPrintf("cascade.budget must be >= 0, got %d", budget));
  }
  if (!(elimination_threshold > 0.0)) {
    return Status::InvalidArgument(
        StrPrintf("cascade.elimination_threshold must be positive, got %g",
                  elimination_threshold));
  }
  if (!(ambiguity_band >= 0.0 && ambiguity_band <= 1.0)) {
    return Status::InvalidArgument(StrPrintf(
        "cascade.ambiguity_band must be in [0, 1], got %g", ambiguity_band));
  }
  return Status::OK();
}

Status PredictOptions::Validate() const {
  if (max_concurrent_svms < 1) {
    return Status::InvalidArgument(StrPrintf(
        "max_concurrent_svms must be >= 1, got %d", max_concurrent_svms));
  }
  if (tile_rows < 0) {
    return Status::InvalidArgument(
        StrPrintf("tile_rows must be >= 0, got %" PRId64, tile_rows));
  }
  if (!(coupling.eps > 0.0)) {
    return Status::InvalidArgument(
        StrPrintf("coupling.eps must be positive, got %g", coupling.eps));
  }
  GMP_RETURN_NOT_OK(cascade.Validate());
  if (cascade.mode == CascadeOptions::Mode::kEliminate &&
      decision == Decision::kVoting) {
    return Status::InvalidArgument(
        "cascade.mode=eliminate requires decision=probability (voting has no "
        "coupling stage for the cascade to shrink)");
  }
  return Status::OK();
}

MpSvmPredictor::MpSvmPredictor(const MpSvmModel* model)
    : model_(model), sv_norms_(model->support_vectors.AllRowSquaredNorms()) {
  std::vector<int32_t> order(model->svms.size());
  std::iota(order.begin(), order.end(), 0);
  if (model->has_cascade_stats()) {
    std::stable_sort(order.begin(), order.end(),
                     [model](int32_t a, int32_t b) {
                       return model->cascade[static_cast<size_t>(a)].score >
                              model->cascade[static_cast<size_t>(b)].score;
                     });
  }
  scan_.reserve(order.size());
  for (const int32_t pi : order) {
    const BinarySvmEntry& svm = model->svms[static_cast<size_t>(pi)];
    scan_.push_back(ScanEntry{svm.class_s, svm.class_t, pi});
  }
}

Result<PredictResult> MpSvmPredictor::Predict(const CsrMatrix& test,
                                              SimExecutor* executor,
                                              const PredictOptions& options) const {
  GMP_RETURN_NOT_OK(options.Validate());
  const MpSvmModel& model = *model_;
  const int k = model.num_classes;
  const int64_t n = test.rows();
  const int64_t pool = model.pool_size();
  if (k < 2 || model.svms.empty()) {
    return Status::FailedPrecondition("model is empty");
  }
  if (test.cols() != model.support_vectors.cols()) {
    return Status::InvalidArgument("test dimensionality mismatch with model");
  }

  Stopwatch wall;
  executor->SynchronizeAll();
  const double sim_base = executor->NowSeconds();

  PredictResult result;
  result.num_instances = n;
  result.num_classes = k;
  result.probabilities.assign(static_cast<size_t>(n) * k, 0.0);
  result.labels.assign(static_cast<size_t>(n), 0);
  if (n == 0) return result;

  // Ship test data and model to the device.
  executor->Transfer(kDefaultStream,
                     static_cast<double>(test.ByteSize() + model.ByteSize()),
                     TransferDirection::kHostToDevice);

  const KernelComputer computer(&test, &model.support_vectors, model.kernel,
                                sv_norms_);

  // Tile size: the tile x pool kernel block, computed at once on the exact
  // path and lazily by the cascade, should use at most ~1/4 of the
  // remaining device memory.
  int64_t tile_rows = options.tile_rows;
  if (tile_rows <= 0) {
    const size_t free_bytes = executor->memory_budget() > executor->bytes_in_use()
                                  ? executor->memory_budget() - executor->bytes_in_use()
                                  : 0;
    tile_rows = static_cast<int64_t>(
        free_bytes / 4 / (sizeof(double) * std::max<int64_t>(1, pool)));
    tile_rows = std::clamp<int64_t>(tile_rows, 1, n);
  }

  GMP_RETURN_NOT_OK(
      options.cascade.mode == CascadeOptions::Mode::kEliminate
          ? PredictCascade(test, executor, options, computer, tile_rows, result)
          : PredictExact(test, executor, options, computer, tile_rows, result));
  result.sim_seconds = executor->NowSeconds() - sim_base;
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

Status MpSvmPredictor::PredictExact(const CsrMatrix& test,
                                    SimExecutor* executor,
                                    const PredictOptions& options,
                                    const KernelComputer& computer,
                                    int64_t tile_rows,
                                    PredictResult& result) const {
  const MpSvmModel& model = *model_;
  const int k = model.num_classes;
  const int64_t n = test.rows();
  const int64_t pool = model.pool_size();
  const simd::SimdOps& ops = simd::OpsFor(simd::SimdTier::kAuto);
  const CouplingOptions& coupling = options.coupling;

  std::vector<int32_t> pool_rows(static_cast<size_t>(pool));
  std::iota(pool_rows.begin(), pool_rows.end(), 0);

  const bool voting = options.decision == PredictOptions::Decision::kVoting;
  const bool couple_panels =
      !voting && coupling.method == CouplingMethod::kGaussianElimination;

  // Streams for concurrent binary-SVM evaluation, created once per call,
  // reused across tiles (SynchronizeAll at each tile boundary keeps them
  // ordered) and retired when the call returns.
  const int group = std::clamp(options.max_concurrent_svms, 1, model.num_pairs());
  const ScopedStreams scoped_streams(executor, group, 1.0 / group);
  const std::vector<StreamId>& streams = scoped_streams.ids();

  const bool share = options.share_kernel_values;
  std::vector<double> kblock;    // tile x pool (shared path)
  std::vector<double> kpair;     // tile x max_svs (per-SVM path)
  std::vector<double> dv;        // pairs x tile decision values (per-SVM path)
  std::vector<int32_t> tile_ids;
  std::vector<Status> row_status;
  std::vector<uint8_t> hit;          // kernel-cache mask (one per pool row)
  std::vector<int32_t> miss_cols;    // pool columns the cache did not hold
  std::vector<double> miss_values;   // their freshly computed kernel values

  for (int64_t tile_begin = 0; tile_begin < n; tile_begin += tile_rows) {
    const int64_t tile_end = std::min(tile_begin + tile_rows, n);
    const int64_t tile = tile_end - tile_begin;
    tile_ids.resize(static_cast<size_t>(tile));
    std::iota(tile_ids.begin(), tile_ids.end(), static_cast<int32_t>(tile_begin));

    DeviceAllocation block_reservation;
    if (share) {
      // One batched product for the whole tile against the shared SV pool.
      GMP_ASSIGN_OR_RETURN(
          block_reservation,
          executor->Allocate(static_cast<size_t>(tile * pool) * sizeof(double)));
      kblock.resize(static_cast<size_t>(tile * pool));
      const double t0 = executor->StreamTime(kDefaultStream);
      if (options.kernel_cache != nullptr && pool > 0) {
        // Cross-model cache (fleet SV store): gather the kernel values the
        // store already holds for each test row and batch-compute only the
        // misses. Each K(row, sv) is a pure per-pair function — a 1 x m miss
        // block produces bit-identical values to the full tile x pool block —
        // so this path preserves the byte-identity contract at any hit rate.
        int64_t gathered = 0;
        for (int64_t i = 0; i < tile; ++i) {
          const int32_t row_id = tile_ids[static_cast<size_t>(i)];
          const SparseRowView row{test.RowIndices(row_id),
                                  test.RowValues(row_id)};
          double* out_row = kblock.data() + i * pool;
          hit.assign(static_cast<size_t>(pool), 0);
          const int64_t hits = options.kernel_cache->Gather(
              row, {out_row, static_cast<size_t>(pool)}, hit);
          gathered += hits;
          if (hits == pool) continue;
          miss_cols.clear();
          for (int64_t j = 0; j < pool; ++j) {
            if (hit[static_cast<size_t>(j)] == 0) {
              miss_cols.push_back(static_cast<int32_t>(j));
            }
          }
          miss_values.resize(miss_cols.size());
          computer.ComputeBlock({&row_id, 1}, miss_cols, executor,
                                kDefaultStream, miss_values.data());
          for (size_t m = 0; m < miss_cols.size(); ++m) {
            out_row[miss_cols[m]] = miss_values[m];
          }
          options.kernel_cache->Commit(
              row, {out_row, static_cast<size_t>(pool)}, hit);
        }
        if (gathered > 0) {
          // Gathered values are host-side reads, not kernel evaluations.
          TaskCost gather_cost;
          gather_cost.bytes_read =
              static_cast<double>(gathered) * sizeof(double);
          gather_cost.parallel_items = gathered;
          executor->Charge(kDefaultStream, gather_cost);
          executor->counters().kernel_values_reused += gathered;
        }
      } else {
        computer.ComputeBlock(tile_ids, pool_rows, executor, kDefaultStream,
                              kblock.data());
      }
      result.phases.Add("decision_values",
                        executor->StreamTime(kDefaultStream) - t0);
      // Every further SV reference reuses these values.
      executor->counters().kernel_values_reused +=
          model.total_sv_references() * tile - static_cast<int64_t>(pool) * tile;
    }

    // Decision values + sigmoid per binary SVM, optionally concurrent; each
    // stream waits for this tile's shared kernel block. Only the charges are
    // pair-major: they depend on the tile size and each SVM's nsv alone, so
    // the row-fused host pass below cannot move them. The per-SVM ablation
    // also computes its kernel blocks and decision values here, as charged.
    for (StreamId stream : streams) {
      executor->StreamWait(stream, kDefaultStream);
    }
    if (!share) dv.resize(model.svms.size() * static_cast<size_t>(tile));

    for (size_t pi = 0; pi < model.svms.size(); ++pi) {
      const BinarySvmEntry& svm = model.svms[pi];
      const StreamId stream = streams[pi % static_cast<size_t>(group)];
      const int64_t nsv = svm.num_svs();

      const double t0 = executor->StreamTime(stream);
      if (share) {
        TaskCost cost;
        cost.parallel_items = tile;
        cost.flops = 2.0 * static_cast<double>(tile * nsv);
        cost.bytes_read = static_cast<double>(tile * nsv) *
                          (sizeof(double) + sizeof(int32_t));
        executor->Charge(stream, cost);
      } else {
        // Per-SVM kernel computation: recompute K(test_tile, its SVs).
        double* v = dv.data() + pi * static_cast<size_t>(tile);
        std::fill(v, v + tile, svm.bias);
        kpair.resize(static_cast<size_t>(tile * std::max<int64_t>(1, nsv)));
        if (nsv > 0) {
          computer.ComputeBlock(tile_ids, svm.sv_pool_index, executor, stream,
                                kpair.data());
          executor->HostParallelFor(
              tile, /*min_chunk=*/64, [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  v[i] +=
                      ops.dot(svm.sv_coef.data(), kpair.data() + i * nsv, nsv);
                }
              });
          TaskCost cost;
          cost.parallel_items = tile;
          cost.flops = 2.0 * static_cast<double>(tile * nsv);
          cost.bytes_read = static_cast<double>(tile * nsv) * sizeof(double);
          executor->Charge(stream, cost);
        }
      }
      result.phases.Add("decision_values", executor->StreamTime(stream) - t0);

      if (voting) {
        TaskCost vote_cost;
        vote_cost.parallel_items = tile;
        vote_cost.flops = 2.0 * static_cast<double>(tile);
        executor->Charge(stream, vote_cost);
      } else {
        const double t1 = executor->StreamTime(stream);
        TaskCost sigmoid_cost;
        sigmoid_cost.parallel_items = tile;
        sigmoid_cost.flops = 10.0 * static_cast<double>(tile);
        sigmoid_cost.bytes_read = static_cast<double>(tile) * sizeof(double);
        executor->Charge(stream, sigmoid_cost);
        result.phases.Add("sigmoid", executor->StreamTime(stream) - t1);
      }
    }

    // Coupling (or vote counting) waits for all SVM streams.
    for (StreamId s : streams) executor->StreamWait(kDefaultStream, s);

    // Row-fused host pass over the tile's panels of kPanelRows rows: each
    // row's decision values, sigmoids and coupling, with one k x k r scratch
    // per chunk. On the shared path a panel's kernel-block rows are
    // interleaved into one aligned panel (unused lanes of a partial panel
    // read zeros), and each pair's coefficients stream once through
    // gather_dot_panel for all of its rows. Each lane is bitwise the row's
    // gather_dot, the tier's canonical tree that the cascade's lazy path
    // uses too. A lone row keeps the plain gather_dot: a 1-row panel
    // measured slower (as in BatchRowDots2). A full panel coupled by
    // Gaussian elimination is solved in one CouplePanel call, one row per
    // SIMD lane, bitwise each row's CoupleProbabilities; every other row
    // couples alone. Panels write disjoint outputs and status slots.
    const int64_t num_panels =
        (tile + simd::kPanelRows - 1) / simd::kPanelRows;
    row_status.assign(static_cast<size_t>(tile), Status::OK());
    executor->HostParallelFor(
        num_panels, /*min_chunk=*/1, [&](int64_t begin, int64_t end) {
          std::vector<double> r(static_cast<size_t>(k) * k, 0.0);
          std::vector<double> panel_storage;
          std::vector<double> panel_dv;  // pairs x kPanelRows, pair-major
          std::vector<double> coupling_scratch;
          int64_t coupling_nanos = 0;
          for (int64_t p = begin; p < end; ++p) {
            const int64_t first = p * simd::kPanelRows;
            const int rows = static_cast<int>(
                std::min<int64_t>(simd::kPanelRows, tile - first));
            const bool panel = share && rows > 1;
            if (panel) {
              double* block = simd::AlignedPanel(panel_storage, pool);
              for (int64_t col = 0; col < pool; ++col) {
                for (int lane = 0; lane < simd::kPanelRows; ++lane) {
                  block[col * simd::kPanelRows + lane] =
                      lane < rows ? kblock[(first + lane) * pool + col] : 0.0;
                }
              }
              panel_dv.resize(model.svms.size() * simd::kPanelRows);
              for (size_t pi = 0; pi < model.svms.size(); ++pi) {
                const BinarySvmEntry& svm = model.svms[pi];
                ops.gather_dot_panel(svm.sv_coef.data(),
                                     svm.sv_pool_index.data(), svm.num_svs(),
                                     block,
                                     panel_dv.data() + pi * simd::kPanelRows);
              }
            }
            if (panel && couple_panels && rows == simd::kPanelRows) {
              // The decision values become pair probabilities in place,
              // still pair-major in model (PairIndex) order.
              for (size_t pi = 0; pi < model.svms.size(); ++pi) {
                const BinarySvmEntry& svm = model.svms[pi];
                double* v = panel_dv.data() + pi * simd::kPanelRows;
                for (int lane = 0; lane < simd::kPanelRows; ++lane) {
                  v[lane] = svm.sigmoid.Probability(svm.bias + v[lane]);
                }
              }
              double* out =
                  result.probabilities.data() + (tile_begin + first) * k;
              const int64_t t0 = simd::NowNanos();
              const std::array<Status, simd::kPanelRows> status =
                  CouplePanel(panel_dv, k, coupling, &coupling_scratch, out);
              coupling_nanos += simd::NowNanos() - t0;
              for (int lane = 0; lane < simd::kPanelRows; ++lane) {
                const int64_t i = first + lane;
                if (!status[static_cast<size_t>(lane)].ok()) {
                  row_status[static_cast<size_t>(i)] =
                      status[static_cast<size_t>(lane)].WithContext(
                          StrPrintf("row %" PRId64, tile_begin + i));
                }
                result.labels[static_cast<size_t>(tile_begin + i)] =
                    ArgMax(out + lane * k, k);
              }
              continue;
            }
            for (int lane = 0; lane < rows; ++lane) {
              const int64_t i = first + lane;
              const double* krow = share ? kblock.data() + i * pool : nullptr;
              const auto decision_value = [&](size_t pi) {
                const BinarySvmEntry& svm = model.svms[pi];
                if (panel) {
                  return svm.bias + panel_dv[pi * simd::kPanelRows + lane];
                }
                if (!share) return dv[pi * static_cast<size_t>(tile) + i];
                return svm.bias + ops.gather_dot(svm.sv_coef.data(),
                                                 svm.sv_pool_index.data(),
                                                 svm.num_svs(), krow);
              };
              double* out_row =
                  result.probabilities.data() + (tile_begin + i) * k;
              row_status[static_cast<size_t>(i)] =
                  FinishRow(model, voting, coupling, tile_begin + i,
                            decision_value, r, out_row, &coupling_nanos);
              result.labels[static_cast<size_t>(tile_begin + i)] =
                  ArgMax(out_row, k);
            }
          }
          simd::RecordPathNanos(simd::SimdPath::kCoupling, coupling_nanos);
        });
    for (const Status& status : row_status) GMP_RETURN_NOT_OK(status);

    if (!voting) {
      // One Gaussian elimination per row is O(k^3); rows are independent.
      const double t2 = executor->StreamTime(kDefaultStream);
      TaskCost cost;
      cost.parallel_items = tile;
      cost.flops = static_cast<double>(tile) * (2.0 / 3.0) *
                   static_cast<double>(k) * k * k;
      cost.bytes_read = static_cast<double>(tile * k * k) * sizeof(double);
      cost.bytes_written = static_cast<double>(tile * k) * sizeof(double);
      executor->Charge(kDefaultStream, cost);
      result.phases.Add("coupling", executor->StreamTime(kDefaultStream) - t2);
    }
    executor->SynchronizeAll();
  }
  return Status::OK();
}

Result<PredictResult> MpSvmPredictor::PredictRows(
    std::span<const SparseRowView> rows, SimExecutor* executor,
    const PredictOptions& options) const {
  CsrBuilder builder(model_->support_vectors.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].indices.size() != rows[i].values.size()) {
      return Status::InvalidArgument(
          StrPrintf("row %zu: indices/values size mismatch", i));
    }
    for (size_t j = 0; j < rows[i].values.size(); ++j) {
      if (!std::isfinite(rows[i].values[j])) {
        return Status::InvalidArgument(
            StrPrintf("row %zu: feature %d value %g is not finite", i,
                      rows[i].indices[j], rows[i].values[j]));
      }
    }
    builder.AddRow(rows[i].indices, rows[i].values);
  }
  GMP_ASSIGN_OR_RETURN(CsrMatrix tile, builder.Finish());
  return Predict(tile, executor, options);
}

// DCSVM-style class-elimination cascade (docs/cascade.md). Per row: scan
// pairs most-discriminative-first, evaluating at most `budget` binary SVMs
// with lazily computed kernel values; eliminate classes whose accumulated
// pairwise loss crosses the threshold; complete the surviving clique and
// couple it exactly; rerun ambiguous rows through the full exact pipeline.
// Every per-row computation is a pure function of that row, kernel values are
// computed through the same scatter-gather arithmetic as the exact block, and
// all charges/counters are aggregated from per-row integer counts in row
// order — so results AND accounting are byte-identical at any host-thread or
// device count, and fallback rows are byte-identical to kExact output.
Status MpSvmPredictor::PredictCascade(const CsrMatrix& test,
                                      SimExecutor* executor,
                                      const PredictOptions& options,
                                      const KernelComputer& computer,
                                      int64_t tile_rows,
                                      PredictResult& result) const {
  const MpSvmModel& model = *model_;
  const int k = model.num_classes;
  const int64_t n = test.rows();
  const int64_t pool = model.pool_size();
  const int num_pairs = model.num_pairs();
  const simd::SimdOps& ops = simd::OpsFor(simd::SimdTier::kAuto);
  const CouplingOptions& coupling = options.coupling;

  const int budget = options.cascade.budget > 0
                         ? std::min(options.cascade.budget, num_pairs)
                         : std::min(num_pairs, 4 * k);
  const double threshold = options.cascade.elimination_threshold;
  const double band = options.cascade.ambiguity_band;
  const bool force_exact_rows = band >= 1.0;

  const bool share = options.share_kernel_values;
  const bool use_cache = share && options.kernel_cache != nullptr && pool > 0;

  // Per-row accounting, aggregated serially after the parallel loop so that
  // charges and executor counters never depend on the thread partition.
  // Kernel-row work is carried as OpStats straight from the row's LazyRow,
  // so lazy rows charge flops/bytes exactly like the batched paths do, and
  // its SIMD path counts are recorded once per tile.
  struct RowCounters {
    KernelComputer::LazyCounts lazy;  // SIMD path counts of lazy values
    OpStats elim_stats;      // elimination-stage kernel-row work
    int64_t elim_fresh = 0;  // kernel values computed in the elimination stage
    int64_t elim_refs = 0;   // SV references gathered in the elimination stage
    int64_t elim_evals = 0;  // binary evals (incl. survivor-clique completion)
    OpStats fb_stats;        // fallback: kernel-row completion work
    int64_t fb_fresh = 0;    // fallback: kernel values computed
    int64_t fb_refs = 0;     // fallback: SV references gathered
    int64_t coup_cube = 0;   // coupled subset size cubed (coupling flops)
    int64_t eliminated = 0;  // classes eliminated (non-fallback rows)
    uint8_t fallback = 0;
  };

  std::vector<double> kblock;     // tile x pool lazy kernel-row buffer
  std::vector<uint8_t> computed;  // which entries of kblock hold valid values
  std::vector<uint8_t> gmask;     // cache Gather hit mask (Commit contract)
  std::vector<int32_t> tile_ids;
  std::vector<RowCounters> rc;
  std::vector<Status> row_status;

  for (int64_t tile_begin = 0; tile_begin < n; tile_begin += tile_rows) {
    const int64_t tile_end = std::min(tile_begin + tile_rows, n);
    const int64_t tile = tile_end - tile_begin;
    tile_ids.resize(static_cast<size_t>(tile));
    std::iota(tile_ids.begin(), tile_ids.end(), static_cast<int32_t>(tile_begin));
    rc.assign(static_cast<size_t>(tile), RowCounters{});
    row_status.assign(static_cast<size_t>(tile), Status::OK());

    const double elim_t0 = executor->StreamTime(kDefaultStream);
    DeviceAllocation block_reservation;
    int64_t gathered = 0;
    if (share) {
      GMP_ASSIGN_OR_RETURN(
          block_reservation,
          executor->Allocate(static_cast<size_t>(tile * pool) * sizeof(double)));
      kblock.assign(static_cast<size_t>(tile * pool), 0.0);
      computed.assign(static_cast<size_t>(tile * pool), 0);
      if (use_cache) {
        // Serial Gather in row order, commits deferred to after the parallel
        // loop — cache traffic stays deterministic at any thread count.
        gmask.assign(static_cast<size_t>(tile * pool), 0);
        for (int64_t i = 0; i < tile; ++i) {
          const int32_t row_id = tile_ids[static_cast<size_t>(i)];
          const SparseRowView row{test.RowIndices(row_id),
                                  test.RowValues(row_id)};
          gathered += options.kernel_cache->Gather(
              row, {kblock.data() + i * pool, static_cast<size_t>(pool)},
              {gmask.data() + i * pool, static_cast<size_t>(pool)});
        }
        std::copy(gmask.begin(), gmask.end(), computed.begin());
      }
    }

    // Elimination + survivor coupling + per-row exact fallback. Rows write
    // disjoint slices of kblock/computed/result and their own counters slot.
    executor->HostParallelFor(
        tile, /*min_chunk=*/1, [&](int64_t begin, int64_t end) {
          std::vector<int32_t> pending;
          std::vector<double> fresh_vals;
          std::vector<double> ktmp;
          std::vector<double> rpair(static_cast<size_t>(num_pairs), 0.0);
          std::vector<uint8_t> rdone(static_cast<size_t>(num_pairs), 0);
          std::vector<double> loss(static_cast<size_t>(k), 0.0);
          std::vector<int32_t> cevals(static_cast<size_t>(k), 0);
          // Alive classes as a bitset (one bit per class).
          std::vector<uint64_t> alive(static_cast<size_t>(k + 63) / 64);
          const auto alive_bit = [&alive](int cls) -> uint64_t {
            return (alive[static_cast<size_t>(cls) >> 6] >> (cls & 63)) & 1;
          };
          const auto kill = [&alive](int cls) {
            alive[static_cast<size_t>(cls) >> 6] &=
                ~(uint64_t{1} << (cls & 63));
          };
          std::vector<int32_t> survivors;
          std::vector<double> rsub, psub;
          std::vector<double> rfull(static_cast<size_t>(k) * k, 0.0);
          int64_t coupling_nanos = 0;

          for (int64_t i = begin; i < end; ++i) {
            const int32_t row_id = tile_ids[static_cast<size_t>(i)];
            RowCounters& c = rc[static_cast<size_t>(i)];
            double* krow = share ? kblock.data() + i * pool : nullptr;
            uint8_t* cmask = share ? computed.data() + i * pool : nullptr;
            // The test row, scattered once for all of its lazy values.
            const KernelComputer::LazyRow lazy_row(computer, row_id);

            // One binary SVM's decision value, computing missing kernel
            // values lazily (shared) or per evaluation (ablation). The
            // coefficient gather runs through the tier's canonical
            // gather-dot — the same tree as the exact path — and kernel-row
            // work is accumulated as OpStats from lazy_row.
            const auto eval = [&](const BinarySvmEntry& svm, OpStats* stats,
                                  int64_t* fresh, int64_t* refs) -> double {
              const int64_t nsv = svm.num_svs();
              double acc = 0.0;
              if (share) {
                pending.clear();
                for (int64_t m = 0; m < nsv; ++m) {
                  const int32_t col = svm.sv_pool_index[static_cast<size_t>(m)];
                  if (cmask[col] == 0) {
                    pending.push_back(col);
                    cmask[col] = 1;
                  }
                }
                if (!pending.empty()) {
                  fresh_vals.resize(pending.size());
                  *stats +=
                      lazy_row.Compute(pending, fresh_vals.data(), &c.lazy);
                  for (size_t j = 0; j < pending.size(); ++j) {
                    krow[pending[j]] = fresh_vals[j];
                  }
                  *fresh += static_cast<int64_t>(pending.size());
                }
                acc = ops.gather_dot(svm.sv_coef.data(),
                                     svm.sv_pool_index.data(), nsv, krow);
              } else {
                if (nsv > 0) {
                  ktmp.resize(static_cast<size_t>(nsv));
                  *stats += lazy_row.Compute(svm.sv_pool_index, ktmp.data(),
                                             &c.lazy);
                  *fresh += nsv;
                }
                acc = ops.dot(svm.sv_coef.data(), ktmp.data(), nsv);
              }
              *refs += nsv;
              return svm.bias + acc;
            };

            // --- Elimination scan ---------------------------------------
            std::fill(loss.begin(), loss.end(), 0.0);
            std::fill(cevals.begin(), cevals.end(), 0);
            std::fill(alive.begin(), alive.end(), ~uint64_t{0});
            std::fill(rdone.begin(), rdone.end(), 0);
            int alive_count = k;
            // A class dies only once its accumulated loss crosses the
            // threshold AND it is losing its evaluated pairs on average
            // (mean r against it above 0.5). The absolute threshold alone
            // would eliminate a class that wins every pair at modest
            // sigmoid confidence — e.g. r = 0.7 seven times accumulates
            // 2.1 loss while never losing a single comparison.
            const auto eliminated = [&](int cls) {
              return loss[static_cast<size_t>(cls)] >= threshold &&
                     2.0 * loss[static_cast<size_t>(cls)] >
                         static_cast<double>(cevals[static_cast<size_t>(cls)]);
            };
            // The scan table is tested 64 entries at a time with no branch
            // per entry; the live ones are visited in scan order, each
            // tested again because an evaluation may have killed a class.
            const auto live = [&](const ScanEntry& e) {
              return alive_bit(e.class_s) & alive_bit(e.class_t);
            };
            for (int base = 0;
                 base < num_pairs && c.elim_evals < budget && alive_count > 1;
                 base += 64) {
              const int n = std::min(64, num_pairs - base);
              uint64_t todo = 0;
              for (int j = 0; j < n; ++j) {
                todo |= live(scan_[static_cast<size_t>(base + j)]) << j;
              }
              for (; todo != 0 && c.elim_evals < budget && alive_count > 1;
                   todo &= todo - 1) {
                const ScanEntry& scan =
                    scan_[static_cast<size_t>(base + std::countr_zero(todo))];
                if (live(scan) == 0) continue;
                const int32_t pi = scan.pair;
                const BinarySvmEntry& svm =
                    model.svms[static_cast<size_t>(pi)];
                const double v =
                    eval(svm, &c.elim_stats, &c.elim_fresh, &c.elim_refs);
                const double r = svm.sigmoid.Probability(v);
                rpair[static_cast<size_t>(pi)] = r;
                rdone[static_cast<size_t>(pi)] = 1;
                ++c.elim_evals;
                loss[static_cast<size_t>(svm.class_s)] += 1.0 - r;
                loss[static_cast<size_t>(svm.class_t)] += r;
                ++cevals[static_cast<size_t>(svm.class_s)];
                ++cevals[static_cast<size_t>(svm.class_t)];
                if (alive_count > 1 && eliminated(svm.class_s)) {
                  kill(svm.class_s);
                  --alive_count;
                }
                if (alive_count > 1 && alive_bit(svm.class_t) != 0 &&
                    eliminated(svm.class_t)) {
                  kill(svm.class_t);
                  --alive_count;
                }
              }
            }

            // --- Survivor-clique coupling -------------------------------
            survivors.clear();
            for (int cls = 0; cls < k; ++cls) {
              if (alive_bit(cls) != 0) survivors.push_back(cls);
            }
            const int ks = static_cast<int>(survivors.size());
            double margin = 1.0;
            if (ks == 1) {
              psub.assign(1, 1.0);
              c.coup_cube += 1;
            } else {
              for (int a = 0; a < ks; ++a) {
                for (int b = a + 1; b < ks; ++b) {
                  const int pi = model.PairIndex(survivors[static_cast<size_t>(a)],
                                                 survivors[static_cast<size_t>(b)]);
                  if (rdone[static_cast<size_t>(pi)] != 0) continue;
                  const BinarySvmEntry& svm = model.svms[static_cast<size_t>(pi)];
                  const double v =
                      eval(svm, &c.elim_stats, &c.elim_fresh, &c.elim_refs);
                  rpair[static_cast<size_t>(pi)] = svm.sigmoid.Probability(v);
                  rdone[static_cast<size_t>(pi)] = 1;
                  ++c.elim_evals;
                }
              }
              rsub.assign(static_cast<size_t>(ks) * ks, 0.0);
              for (int a = 0; a < ks; ++a) {
                for (int b = a + 1; b < ks; ++b) {
                  const int pi = model.PairIndex(survivors[static_cast<size_t>(a)],
                                                 survivors[static_cast<size_t>(b)]);
                  const double r = rpair[static_cast<size_t>(pi)];
                  rsub[static_cast<size_t>(a) * ks + b] = r;
                  rsub[static_cast<size_t>(b) * ks + a] = 1.0 - r;
                }
              }
              const int64_t t0 = simd::NowNanos();
              Result<std::vector<double>> sub =
                  CoupleProbabilities(rsub, ks, coupling);
              coupling_nanos += simd::NowNanos() - t0;
              if (!sub.ok()) {
                row_status[static_cast<size_t>(i)] = sub.status().WithContext(
                    StrPrintf("row %" PRId64, tile_begin + i));
                continue;
              }
              psub = std::move(sub.value());
              c.coup_cube += static_cast<int64_t>(ks) * ks * ks;
              double top1 = -1.0, top2 = -1.0;
              for (double p : psub) {
                if (p > top1) {
                  top2 = top1;
                  top1 = p;
                } else if (p > top2) {
                  top2 = p;
                }
              }
              margin = top1 - top2;
            }

            double* out_row =
                result.probabilities.data() + (tile_begin + i) * k;
            if (margin < band || force_exact_rows) {
              // --- Exact fallback ---------------------------------------
              // Complete the kernel row, evaluate every pair, couple the
              // full k x k matrix — identical arithmetic to the exact path,
              // so these rows are byte-for-byte what kExact returns.
              c.fallback = 1;
              if (share) {
                pending.clear();
                for (int64_t col = 0; col < pool; ++col) {
                  if (cmask[col] == 0) {
                    pending.push_back(static_cast<int32_t>(col));
                    cmask[col] = 1;
                  }
                }
                if (!pending.empty()) {
                  fresh_vals.resize(pending.size());
                  c.fb_stats +=
                      lazy_row.Compute(pending, fresh_vals.data(), &c.lazy);
                  for (size_t j = 0; j < pending.size(); ++j) {
                    krow[pending[j]] = fresh_vals[j];
                  }
                  c.fb_fresh += static_cast<int64_t>(pending.size());
                }
              }
              // The kernel row is complete, so eval only gathers here.
              const Status tail = FinishRow(
                  model, /*voting=*/false, coupling, tile_begin + i,
                  [&](size_t pi) {
                    return eval(model.svms[pi], &c.fb_stats, &c.fb_fresh,
                                &c.fb_refs);
                  },
                  rfull, out_row, &coupling_nanos);
              if (!tail.ok()) {
                row_status[static_cast<size_t>(i)] = tail;
                continue;
              }
              c.coup_cube += static_cast<int64_t>(k) * k * k;
            } else {
              for (int a = 0; a < ks; ++a) {
                out_row[survivors[static_cast<size_t>(a)]] =
                    psub[static_cast<size_t>(a)];
              }
              c.eliminated = k - ks;
            }
            result.labels[static_cast<size_t>(tile_begin + i)] =
                ArgMax(out_row, k);
          }
          simd::RecordPathNanos(simd::SimdPath::kCoupling, coupling_nanos);
        });

    // Aggregate counters in row order and charge the stages. The OpStats
    // sums replay the serial row order, so charges are invariant to the
    // thread partition. The tile's SIMD path counts are recorded here, once,
    // also when a row failed.
    KernelComputer::LazyCounts lazy;
    OpStats elim_stats, fb_stats;
    int64_t elim_fresh = 0, elim_refs = 0, elim_evals = 0;
    int64_t fb_fresh = 0, fb_refs = 0, fb_rows = 0;
    int64_t coup = 0, eliminated = 0;
    for (const RowCounters& c : rc) {
      lazy += c.lazy;
      elim_stats += c.elim_stats;
      elim_fresh += c.elim_fresh;
      elim_refs += c.elim_refs;
      elim_evals += c.elim_evals;
      fb_stats += c.fb_stats;
      fb_fresh += c.fb_fresh;
      fb_refs += c.fb_refs;
      fb_rows += c.fallback;
      coup += c.coup_cube;
      eliminated += c.eliminated;
    }
    lazy.Record();
    for (const Status& status : row_status) {
      GMP_RETURN_NOT_OK(status);
    }
    result.cascade_rows += tile;
    result.cascade_pairs_evaluated += elim_evals;
    result.cascade_fallback_rows += fb_rows;
    result.cascade_classes_eliminated += eliminated;

    executor->counters().kernel_values_computed += elim_fresh + fb_fresh;
    // References served without a kernel evaluation — from this row's earlier
    // pairs or from the cross-model cache (cache hits reduce `fresh`, so
    // their references land here automatically).
    executor->counters().kernel_values_reused +=
        (elim_refs + fb_refs) - (elim_fresh + fb_fresh);

    {
      // Kernel-row work (dots + transforms) comes straight from the OpStats
      // the lazy rows accumulated — the same accounting the batched paths
      // use; the gather/sigmoid terms are charged on top.
      TaskCost cost;
      cost.parallel_items = tile;
      cost.flops = elim_stats.flops + 2.0 * static_cast<double>(elim_refs) +
                   10.0 * static_cast<double>(elim_evals);
      cost.bytes_read = elim_stats.bytes_read +
                        static_cast<double>(elim_refs) *
                            (sizeof(double) + sizeof(int32_t)) +
                        static_cast<double>(gathered) * sizeof(double);
      cost.bytes_written = elim_stats.bytes_written;
      executor->Charge(kDefaultStream, cost);
      result.phases.Add("elimination",
                        executor->StreamTime(kDefaultStream) - elim_t0);
    }
    if (fb_rows > 0) {
      const double t1 = executor->StreamTime(kDefaultStream);
      TaskCost dv;
      dv.parallel_items = fb_rows;
      dv.flops = fb_stats.flops + 2.0 * static_cast<double>(fb_refs);
      dv.bytes_read = fb_stats.bytes_read +
                      static_cast<double>(fb_refs) *
                          (sizeof(double) + sizeof(int32_t));
      dv.bytes_written = fb_stats.bytes_written;
      executor->Charge(kDefaultStream, dv);
      result.phases.Add("decision_values",
                        executor->StreamTime(kDefaultStream) - t1);

      const double t2 = executor->StreamTime(kDefaultStream);
      TaskCost sg;
      sg.parallel_items = fb_rows;
      sg.flops = 10.0 * static_cast<double>(fb_rows * num_pairs);
      sg.bytes_read = static_cast<double>(fb_rows * num_pairs) * sizeof(double);
      executor->Charge(kDefaultStream, sg);
      result.phases.Add("sigmoid", executor->StreamTime(kDefaultStream) - t2);
    }
    {
      const double t3 = executor->StreamTime(kDefaultStream);
      TaskCost cc;
      cc.parallel_items = tile;
      cc.flops = (2.0 / 3.0) * static_cast<double>(coup);
      cc.bytes_written = static_cast<double>(tile * k) * sizeof(double);
      executor->Charge(kDefaultStream, cc);
      result.phases.Add("coupling", executor->StreamTime(kDefaultStream) - t3);
    }

    if (use_cache) {
      // Only rows whose kernel row ended complete (fallback rows) may be
      // offered back — Commit's contract requires the full row. Serial, in
      // row order, for deterministic cache contents.
      for (int64_t i = 0; i < tile; ++i) {
        if (rc[static_cast<size_t>(i)].fallback == 0) continue;
        const int32_t row_id = tile_ids[static_cast<size_t>(i)];
        const SparseRowView row{test.RowIndices(row_id), test.RowValues(row_id)};
        options.kernel_cache->Commit(
            row, {kblock.data() + i * pool, static_cast<size_t>(pool)},
            {gmask.data() + i * pool, static_cast<size_t>(pool)});
      }
    }
    executor->SynchronizeAll();
  }
  return Status::OK();
}

}  // namespace gmpsvm
