#include "core/model_io.h"

#include <cinttypes>
#include <set>
#include <sstream>
#include <utility>

#include "common/file_util.h"
#include "common/string_util.h"
#include "sparse/csr_matrix.h"

namespace gmpsvm {
namespace {

// v1: header + svms + pool. v2 adds an optional `cascade <n>` section (one
// score/prior triple per binary SVM) between the svm entries and pool_rows;
// v1 files still load, yielding a model with no cascade stats.
constexpr char kMagicV1[] = "gmpsvm_model_v1";
constexpr char kMagic[] = "gmpsvm_model_v2";
constexpr char kPairMagic[] = "gmpsvm_pair_checkpoint_v1";
constexpr char kManifestMagic[] = "gmpsvm_checkpoint_v1";

}  // namespace

std::string SerializeModel(const MpSvmModel& model) {
  std::ostringstream out;
  out.precision(17);
  out << kMagic << "\n";
  out << "num_classes " << model.num_classes << "\n";
  out << "c " << model.c << "\n";
  // The `0 3` after gamma is part of the format: model files written with
  // it must load and re-save byte for byte.
  out << "kernel " << KernelTypeToString(model.kernel.type) << " "
      << model.kernel.gamma << " 0 3\n";
  out << "pool " << model.support_vectors.rows() << " "
      << model.support_vectors.cols() << "\n";
  out << "svms " << model.svms.size() << "\n";
  for (const auto& svm : model.svms) {
    out << "svm " << svm.class_s << " " << svm.class_t << " " << svm.bias << " "
        << svm.sigmoid.a << " " << svm.sigmoid.b << " " << svm.num_svs() << "\n";
    for (int64_t m = 0; m < svm.num_svs(); ++m) {
      out << svm.sv_pool_index[static_cast<size_t>(m)] << ":"
          << svm.sv_coef[static_cast<size_t>(m)]
          << (m + 1 < svm.num_svs() ? " " : "");
    }
    out << "\n";
  }
  if (model.has_cascade_stats()) {
    out << "cascade " << model.cascade.size() << "\n";
    for (const PairCascadeStats& stats : model.cascade) {
      out << stats.score << " " << stats.prior_s << " " << stats.prior_t
          << "\n";
    }
  }
  out << "pool_rows";
  for (int32_t row : model.pool_source_rows) out << " " << row;
  out << "\n";
  const CsrMatrix& sv = model.support_vectors;
  for (int64_t r = 0; r < sv.rows(); ++r) {
    const auto idx = sv.RowIndices(r);
    const auto val = sv.RowValues(r);
    for (size_t p = 0; p < idx.size(); ++p) {
      out << (p > 0 ? " " : "") << idx[p] << ":" << val[p];
    }
    out << "\n";
  }
  return out.str();
}

Result<MpSvmModel> DeserializeModel(const std::string& text) {
  std::istringstream in(text);
  std::string line, word;

  auto fail = [](const std::string& what) {
    return Status::IoError("model parse error: " + what);
  };

  if (!std::getline(in, line) ||
      (StripWhitespace(line) != kMagic && StripWhitespace(line) != kMagicV1)) {
    return fail("bad magic");
  }
  MpSvmModel model;
  int64_t pool_rows = 0, pool_cols = 0;
  size_t num_svms = 0;

  {
    std::string kernel_name;
    double coef0 = 0.0;  // the format's `0 3`: read and ignored
    int degree = 0;
    if (!(in >> word >> model.num_classes) || word != "num_classes") {
      return fail("num_classes");
    }
    if (!(in >> word >> model.c) || word != "c") return fail("c");
    if (!(in >> word >> kernel_name >> model.kernel.gamma >> coef0 >> degree) ||
        word != "kernel") {
      return fail("kernel");
    }
    GMP_ASSIGN_OR_RETURN(model.kernel.type, KernelTypeFromString(kernel_name));
    if (!(in >> word >> pool_rows >> pool_cols) || word != "pool") {
      return fail("pool");
    }
    if (!(in >> word >> num_svms) || word != "svms") return fail("svms");
  }
  if (model.num_classes < 2 || pool_rows < 0 || pool_cols < 0) {
    return fail("bad header values");
  }
  // Element counts claimed by the header cannot exceed the number of tokens
  // the text could possibly hold; rejecting hostile counts here keeps the
  // reserve()/resize() calls below from attempting absurd allocations.
  const auto kMaxElements = static_cast<int64_t>(text.size());
  if (pool_rows > kMaxElements || num_svms > text.size()) {
    return fail("header counts exceed input size");
  }

  model.svms.reserve(num_svms);
  for (size_t s = 0; s < num_svms; ++s) {
    BinarySvmEntry entry;
    int64_t nsv = 0;
    if (!(in >> word >> entry.class_s >> entry.class_t >> entry.bias >>
          entry.sigmoid.a >> entry.sigmoid.b >> nsv) ||
        word != "svm" || nsv < 0 || nsv > kMaxElements) {
      return fail(StrPrintf("svm header %zu", s));
    }
    entry.sv_pool_index.reserve(static_cast<size_t>(nsv));
    entry.sv_coef.reserve(static_cast<size_t>(nsv));
    for (int64_t m = 0; m < nsv; ++m) {
      std::string token;
      if (!(in >> token)) return fail("sv coefficient");
      const auto kv = SplitTokens(token, ":");
      if (kv.size() != 2) return fail("sv coefficient format");
      int32_t index = 0;
      double coef = 0.0;
      if (!ParseInt32(kv[0], &index) || !ParseDouble(kv[1], &coef)) {
        return fail("sv coefficient value");
      }
      if (index < 0 || index >= pool_rows) return fail("sv index out of range");
      entry.sv_pool_index.push_back(index);
      entry.sv_coef.push_back(coef);
    }
    model.svms.push_back(std::move(entry));
  }

  if (!(in >> word)) return fail("pool_rows");
  if (word == "cascade") {
    // Optional v2 section; one stats triple per binary SVM.
    size_t count = 0;
    if (!(in >> count) || count != num_svms) return fail("cascade count");
    model.cascade.reserve(count);
    for (size_t s = 0; s < count; ++s) {
      PairCascadeStats stats;
      if (!(in >> stats.score >> stats.prior_s >> stats.prior_t)) {
        return fail("cascade entry");
      }
      model.cascade.push_back(stats);
    }
    if (!(in >> word)) return fail("pool_rows");
  }
  if (word != "pool_rows") return fail("pool_rows");
  model.pool_source_rows.resize(static_cast<size_t>(pool_rows));
  for (int64_t r = 0; r < pool_rows; ++r) {
    if (!(in >> model.pool_source_rows[static_cast<size_t>(r)])) {
      return fail("pool_rows entries");
    }
  }
  std::getline(in, line);  // consume rest of pool_rows line

  CsrBuilder builder(pool_cols);
  for (int64_t r = 0; r < pool_rows; ++r) {
    if (!std::getline(in, line)) return fail("missing pool row");
    std::vector<std::pair<int32_t, double>> entries;
    for (const auto token : SplitTokens(StripWhitespace(line), " ")) {
      const auto kv = SplitTokens(token, ":");
      if (kv.size() != 2) return fail("pool row token");
      int32_t index = 0;
      double value = 0.0;
      if (!ParseInt32(kv[0], &index) || !ParseDouble(kv[1], &value)) {
        return fail("pool row value");
      }
      entries.emplace_back(index, value);
    }
    builder.AddRowUnsorted(std::move(entries));
  }
  GMP_ASSIGN_OR_RETURN(model.support_vectors, builder.Finish());

  // Prediction finds pair (s, t) at svms[PairIndex(s, t)] (the cascade, and
  // the exact path's coupling panels), so the entries must be the k(k-1)/2
  // pairs in that order.
  const int k = model.num_classes;
  if (model.svms.size() != static_cast<size_t>(k) * (k - 1) / 2) {
    return fail(StrPrintf("%zu svms for %d classes, need %zu",
                          model.svms.size(), k,
                          static_cast<size_t>(k) * (k - 1) / 2));
  }
  for (size_t pi = 0; pi < model.svms.size(); ++pi) {
    const BinarySvmEntry& svm = model.svms[pi];
    if (svm.class_s < 0 || svm.class_s >= svm.class_t || svm.class_t >= k ||
        static_cast<size_t>(model.PairIndex(svm.class_s, svm.class_t)) != pi) {
      return fail(StrPrintf("svm %zu is pair (%d, %d), out of pair order", pi,
                            svm.class_s, svm.class_t));
    }
  }
  return model;
}

Status SaveModel(const MpSvmModel& model, const std::string& path) {
  return WriteFile(SerializeModel(model), path);
}

Result<MpSvmModel> LoadModel(const std::string& path) {
  GMP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return DeserializeModel(text);
}

std::string SerializePairCheckpoint(const PairCheckpoint& pair) {
  std::ostringstream out;
  out.precision(17);
  out << kPairMagic << "\n";
  out << "pair " << pair.class_s << " " << pair.class_t << "\n";
  out << "bias " << pair.bias << "\n";
  out << "sigmoid " << pair.sigmoid.a << " " << pair.sigmoid.b << "\n";
  out << "degraded " << (pair.degraded ? 1 : 0) << "\n";
  out << "svs " << pair.sv_rows.size() << "\n";
  for (size_t m = 0; m < pair.sv_rows.size(); ++m) {
    out << pair.sv_rows[m] << ":" << pair.sv_coef[m]
        << (m + 1 < pair.sv_rows.size() ? " " : "");
  }
  out << "\n";
  return out.str();
}

Result<PairCheckpoint> ParsePairCheckpoint(const std::string& text) {
  std::istringstream in(text);
  std::string line, word;
  auto fail = [](const std::string& what) {
    return Status::InvalidArgument("pair checkpoint parse error: " + what);
  };
  if (!std::getline(in, line) || StripWhitespace(line) != kPairMagic) {
    return fail("bad magic");
  }
  PairCheckpoint pair;
  int degraded = 0;
  size_t nsv = 0;
  if (!(in >> word >> pair.class_s >> pair.class_t) || word != "pair") {
    return fail("pair header");
  }
  if (!(in >> word >> pair.bias) || word != "bias") return fail("bias");
  if (!(in >> word >> pair.sigmoid.a >> pair.sigmoid.b) || word != "sigmoid") {
    return fail("sigmoid");
  }
  if (!(in >> word >> degraded) || word != "degraded" ||
      (degraded != 0 && degraded != 1)) {
    return fail("degraded flag");
  }
  if (!(in >> word >> nsv) || word != "svs" || nsv > text.size()) {
    return fail("sv count");
  }
  if (pair.class_s < 0 || pair.class_t < 0 || pair.class_s == pair.class_t) {
    return fail("bad class pair");
  }
  pair.degraded = degraded != 0;
  pair.sv_rows.reserve(nsv);
  pair.sv_coef.reserve(nsv);
  for (size_t m = 0; m < nsv; ++m) {
    std::string token;
    if (!(in >> token)) return fail("sv entry");
    const auto kv = SplitTokens(token, ":");
    if (kv.size() != 2) return fail("sv entry format");
    int32_t row = 0;
    double coef = 0.0;
    if (!ParseInt32(kv[0], &row) || !ParseDouble(kv[1], &coef)) {
      return fail("sv entry value");
    }
    if (row < 0) return fail("negative sv row");
    pair.sv_rows.push_back(row);
    pair.sv_coef.push_back(coef);
  }
  return pair;
}

std::string SerializeCheckpointManifest(const CheckpointManifest& manifest) {
  std::ostringstream out;
  out << kManifestMagic << "\n";
  out << "fingerprint " << manifest.fingerprint << "\n";
  out << "num_classes " << manifest.num_classes << "\n";
  out << "completed " << manifest.completed.size() << "\n";
  for (const auto& [s, t] : manifest.completed) out << s << " " << t << "\n";
  return out.str();
}

Result<CheckpointManifest> ParseCheckpointManifest(const std::string& text) {
  std::istringstream in(text);
  std::string line, word;
  auto fail = [](const std::string& what) {
    return Status::InvalidArgument("checkpoint manifest parse error: " + what);
  };
  if (!std::getline(in, line) || StripWhitespace(line) != kManifestMagic) {
    return fail("bad magic");
  }
  CheckpointManifest manifest;
  size_t num_completed = 0;
  if (!(in >> word >> manifest.fingerprint) || word != "fingerprint") {
    return fail("fingerprint");
  }
  if (!(in >> word >> manifest.num_classes) || word != "num_classes" ||
      manifest.num_classes < 2) {
    return fail("num_classes");
  }
  if (!(in >> word >> num_completed) || word != "completed" ||
      num_completed > text.size()) {
    return fail("completed count");
  }
  manifest.completed.reserve(num_completed);
  std::set<std::pair<int, int>> seen;
  for (size_t i = 0; i < num_completed; ++i) {
    int s = 0, t = 0;
    if (!(in >> s >> t)) return fail("completed pair");
    if (s < 0 || t < 0 || s == t || s >= manifest.num_classes ||
        t >= manifest.num_classes) {
      return fail("completed pair out of range");
    }
    if (!seen.emplace(s, t).second) return fail("duplicate completed pair");
    manifest.completed.emplace_back(s, t);
  }
  return manifest;
}

std::string PairCheckpointFileName(int class_s, int class_t) {
  return StrPrintf("pair_%d_%d.ckpt", class_s, class_t);
}

Status SavePairCheckpoint(const PairCheckpoint& pair, const std::string& path) {
  return WriteFile(SerializePairCheckpoint(pair), path);
}

Result<PairCheckpoint> LoadPairCheckpoint(const std::string& path) {
  GMP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParsePairCheckpoint(text);
}

Status SaveCheckpointManifest(const CheckpointManifest& manifest,
                              const std::string& path) {
  return WriteFile(SerializeCheckpointManifest(manifest), path);
}

Result<CheckpointManifest> LoadCheckpointManifest(const std::string& path) {
  GMP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseCheckpointManifest(text);
}

}  // namespace gmpsvm
