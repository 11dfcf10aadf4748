// Table 4: final classifier comparison between LibSVM and GMP-SVM — bias of
// the decision function (last binary SVM), training error, prediction error.
// The paper's claim: identical classifiers. Exits 1 when any dataset's
// classifiers differ.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "common/string_util.h"

using namespace gmpsvm;         // NOLINT
using namespace gmpsvm::bench;  // NOLINT

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::printf("TABLE 4: final classifier comparison, LibSVM vs GMP-SVM (scale %.2f)\n\n",
              args.scale);

  TablePrinter table({"Dataset", "bias LibSVM", "bias GMP-SVM", "train err LibSVM",
                      "train err GMP", "pred err LibSVM", "pred err GMP",
                      "identical"});
  int identical_count = 0, total = 0;
  for (const auto& spec : SelectSpecs(args)) {
    Dataset train = ValueOrDie(GenerateSynthetic(spec));
    Dataset test = ValueOrDie(GenerateSyntheticTest(spec));
    std::fprintf(stderr, "[table4] %s ...\n", spec.name.c_str());
    RunResult libsvm = ValueOrDie(RunImpl(Impl::kLibsvmSingle, spec, train, test));
    RunResult gmp = ValueOrDie(RunImpl(Impl::kGmpSvm, spec, train, test));

    const bool same = std::abs(libsvm.last_bias - gmp.last_bias) < 5e-2 &&
                      std::abs(libsvm.train_error - gmp.train_error) < 5e-3 &&
                      std::abs(libsvm.predict_error - gmp.predict_error) < 5e-3;
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
        same ? "yes" : "NO",
    });
  }
  table.Print();
  std::printf("\n%d / %d datasets produce matching classifiers "
              "(bias within 0.05, errors within 0.5pp)\n",
              identical_count, total);
  DumpObservability(args);
  return identical_count == total ? 0 : 1;
}
