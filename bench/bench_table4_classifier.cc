// Table 4: final classifier comparison between LibSVM and GMP-SVM. The
// paper's claim is identical classifiers, which here means that every test
// row's decision value has the same sign in every pair (the side of each
// binary SVM's hyperplane the row falls on). Beside that verdict the table
// prints the paper's columns (bias of the last binary SVM, training and
// prediction error), test accuracy, and how many test rows get the same
// probability argmax from both. The argmax can differ on a row whose signs
// agree: LibSVM's iterative coupling returns exactly (0.5, 0.5) for a
// binary row whose r is within 0.005 of 0.5, and ArgMax then picks class 0.
//
// Every row whose signs differ is named with its pairs' two decision
// values. The exit status is 1 when more rows differ than kKnownSignDiffs
// records for the run's scale; tier-1 ctest runs it at --scale=0.25.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/string_util.h"
#include "kernel/kernel_computer.h"
#include "simd/simd.h"

using namespace gmpsvm;         // NOLINT
using namespace gmpsvm::bench;  // NOLINT

namespace {

// Test rows whose decision values differ in sign between the two
// classifiers, summed over all nine datasets, per scale, as measured when
// this gate was added. Every differing value lay within 4e-4 of zero,
// inside the solvers' 1e-3 stopping tolerance (eps), so both solvers
// stopped where the row sits on either side of that pair's hyperplane. A
// ratchet: lower an entry when rows come to agree, never raise it. A run
// over fewer datasets counts no more rows; a run at another scale is
// reported and not gated.
struct KnownSignDiffs {
  double scale;
  int64_t rows;
};
constexpr KnownSignDiffs kKnownSignDiffs[] = {
    {0.02, 1}, {0.05, 2}, {0.1, 1}, {0.25, 4}, {0.5, 16}, {1.0, 23},
};

// value[i * pairs + pi] is test row i's decision value for pair pi,
// computed as the exact predictor computes it: the kernel block, then each
// pair's gather_dot.
std::vector<double> DecisionValues(const MpSvmModel& model,
                                   const CsrMatrix& test) {
  constexpr int64_t kTileRows = 256;  // bounds the kernel block's size
  const int64_t n = test.rows();
  const int64_t pool = model.pool_size();
  const size_t pairs = model.svms.size();
  const simd::SimdOps& ops = simd::OpsFor(simd::SimdTier::kAuto);
  const KernelComputer computer(&test, &model.support_vectors, model.kernel);
  std::vector<int32_t> cols(static_cast<size_t>(pool));
  std::iota(cols.begin(), cols.end(), 0);
  std::vector<double> value(static_cast<size_t>(n) * pairs);
  std::vector<int32_t> rows;
  std::vector<double> block;
  for (int64_t first = 0; first < n; first += kTileRows) {
    rows.resize(static_cast<size_t>(std::min(kTileRows, n - first)));
    std::iota(rows.begin(), rows.end(), static_cast<int32_t>(first));
    block.resize(rows.size() * static_cast<size_t>(pool));
    computer.ComputeBlockValues(rows, cols, nullptr, block.data());
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t pi = 0; pi < pairs; ++pi) {
        const BinarySvmEntry& svm = model.svms[pi];
        value[(static_cast<size_t>(first) + r) * pairs + pi] =
            svm.bias + ops.gather_dot(svm.sv_coef.data(),
                                      svm.sv_pool_index.data(), svm.num_svs(),
                                      block.data() + r * pool);
      }
    }
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::printf("TABLE 4: final classifier comparison, LibSVM vs GMP-SVM (scale %.2f)\n\n",
              args.scale);

  TablePrinter table({"Dataset", "bias LibSVM", "bias GMP-SVM", "train err LibSVM",
                      "train err GMP", "pred err LibSVM", "pred err GMP",
                      "accuracy LibSVM/GMP", "argmax agree", "sign diff rows",
                      "identical"});
  int identical_count = 0, total = 0;
  int64_t sign_diff_rows = 0;
  std::vector<std::string> named;
  for (const auto& spec : SelectSpecs(args)) {
    Dataset train = ValueOrDie(GenerateSynthetic(spec));
    Dataset test = ValueOrDie(GenerateSyntheticTest(spec));
    std::fprintf(stderr, "[table4] %s ...\n", spec.name.c_str());
    RunResult libsvm = ValueOrDie(RunImpl(Impl::kLibsvmSingle, spec, train, test));
    RunResult gmp = ValueOrDie(RunImpl(Impl::kGmpSvm, spec, train, test));

    if (libsvm.model.svms.size() != gmp.model.svms.size()) {
      std::fprintf(stderr, "FAIL: %s: the classifiers have %zu and %zu pairs\n",
                   spec.name.c_str(), libsvm.model.svms.size(),
                   gmp.model.svms.size());
      return 1;
    }
    const std::vector<double> want =
        DecisionValues(libsvm.model, test.features());
    const std::vector<double> got = DecisionValues(gmp.model, test.features());
    const size_t pairs = gmp.model.svms.size();
    const int64_t n = test.size();
    int64_t differ = 0;
    int64_t argmax_agree = 0;
    for (int64_t i = 0; i < n; ++i) {
      // A vote counts v >= 0 for class s and v < 0 for class t.
      std::string flips;
      for (size_t pi = 0; pi < pairs; ++pi) {
        const size_t at = static_cast<size_t>(i) * pairs + pi;
        if ((want[at] >= 0) == (got[at] >= 0)) continue;
        const BinarySvmEntry& svm = gmp.model.svms[pi];
        flips += StrPrintf(" (%d,%d): %.3g vs %.3g", svm.class_s, svm.class_t,
                           want[at], got[at]);
      }
      if (!flips.empty()) {
        ++differ;
        named.push_back(StrPrintf("%s test row %lld, pair%s",
                                  spec.name.c_str(),
                                  static_cast<long long>(i), flips.c_str()));
      }
      argmax_agree += libsvm.test_labels[static_cast<size_t>(i)] ==
                      gmp.test_labels[static_cast<size_t>(i)];
    }
    sign_diff_rows += differ;
    const bool same = differ == 0;
    identical_count += same ? 1 : 0;
    ++total;
    table.AddRow({
        spec.name,
        StrPrintf("%.3f", libsvm.last_bias),
        StrPrintf("%.3f", gmp.last_bias),
        StrPrintf("%.2f%%", 100.0 * libsvm.train_error),
        StrPrintf("%.2f%%", 100.0 * gmp.train_error),
        StrPrintf("%.2f%%", 100.0 * libsvm.predict_error),
        StrPrintf("%.2f%%", 100.0 * gmp.predict_error),
        StrPrintf("%.2f%%/%.2f%%", 100.0 * (1.0 - libsvm.predict_error),
                  100.0 * (1.0 - gmp.predict_error)),
        StrPrintf("%lld/%lld", static_cast<long long>(argmax_agree),
                  static_cast<long long>(n)),
        StrPrintf("%lld", static_cast<long long>(differ)),
        same ? "yes" : "NO",
    });
  }
  table.Print();
  std::printf("\n%d / %d datasets produce identical classifiers "
              "(every test row's decision values have the same sign in every "
              "pair)\n",
              identical_count, total);
  for (const std::string& row : named) {
    std::printf("decision-value signs differ (LibSVM vs GMP-SVM): %s\n",
                row.c_str());
  }
  DumpObservability(args);
  for (const KnownSignDiffs& known : kKnownSignDiffs) {
    if (known.scale != args.scale) continue;
    std::printf("sign-diff rows: %lld, at most %lld at this scale\n",
                static_cast<long long>(sign_diff_rows),
                static_cast<long long>(known.rows));
    if (sign_diff_rows > known.rows) {
      std::fprintf(stderr,
                   "FAIL: %lld test rows differ in decision-value sign; at "
                   "most %lld may at scale %.2f\n",
                   static_cast<long long>(sign_diff_rows),
                   static_cast<long long>(known.rows), args.scale);
      return 1;
    }
  }
  return 0;
}
