#include "online/delta.h"

#include <algorithm>
#include <sstream>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "sparse/csr_matrix.h"

namespace gmpsvm::online {
namespace {

constexpr char kDeltaMagic[] = "gmpsvm_delta_v1";

}  // namespace

uint64_t DatasetFingerprint(const Dataset& dataset) {
  uint64_t h = kFnv1aOffset;
  const int32_t k = dataset.num_classes();
  const int64_t rows = dataset.size();
  const int64_t cols = dataset.dim();
  h = Fnv1a64(&k, sizeof(k), h);
  h = Fnv1a64(&rows, sizeof(rows), h);
  h = Fnv1a64(&cols, sizeof(cols), h);
  const auto& labels = dataset.labels();
  h = Fnv1a64(labels.data(), labels.size() * sizeof(int32_t), h);
  const CsrMatrix& m = dataset.features();
  h = Fnv1a64(m.row_ptr().data(), m.row_ptr().size() * sizeof(int64_t), h);
  h = Fnv1a64(m.col_idx().data(), m.col_idx().size() * sizeof(int32_t), h);
  h = Fnv1a64(m.values().data(), m.values().size() * sizeof(double), h);
  return h;
}

std::string SerializeDelta(const DatasetDelta& delta) {
  std::ostringstream out;
  out.precision(17);
  out << kDeltaMagic << "\n";
  out << "base_fingerprint " << delta.base_fingerprint << "\n";
  out << "num_classes " << delta.num_classes << "\n";
  out << "ops " << delta.ops.size() << "\n";
  for (const DeltaOp& op : delta.ops) {
    if (op.kind == DeltaOp::Kind::kAdd) {
      out << "add " << op.label << " " << op.indices.size();
      for (size_t p = 0; p < op.indices.size(); ++p) {
        out << " " << op.indices[p] << ":" << op.values[p];
      }
      out << "\n";
    } else {
      out << "relabel " << op.row << " " << op.old_label << " " << op.new_label
          << "\n";
    }
  }
  return out.str();
}

Result<DatasetDelta> ParseDelta(const std::string& text) {
  std::istringstream in(text);
  std::string line, word;
  auto fail = [](const std::string& what) {
    return Status::InvalidArgument("delta parse error: " + what);
  };
  if (!std::getline(in, line) || StripWhitespace(line) != kDeltaMagic) {
    return fail("bad magic");
  }
  DatasetDelta delta;
  size_t num_ops = 0;
  if (!(in >> word >> delta.base_fingerprint) || word != "base_fingerprint") {
    return fail("base_fingerprint");
  }
  if (!(in >> word >> delta.num_classes) || word != "num_classes" ||
      delta.num_classes < 2) {
    return fail("num_classes");
  }
  if (!(in >> word >> num_ops) || word != "ops" || num_ops > text.size()) {
    return fail("ops count");
  }
  delta.ops.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    if (!(in >> word)) return fail(StrPrintf("op %zu", i));
    DeltaOp op;
    if (word == "add") {
      op.kind = DeltaOp::Kind::kAdd;
      size_t nnz = 0;
      if (!(in >> op.label >> nnz) || nnz > text.size()) {
        return fail(StrPrintf("add header %zu", i));
      }
      if (op.label < 0 || op.label >= delta.num_classes) {
        return fail("add label out of range");
      }
      op.indices.reserve(nnz);
      op.values.reserve(nnz);
      int32_t prev = -1;
      for (size_t p = 0; p < nnz; ++p) {
        std::string token;
        if (!(in >> token)) return fail("add feature");
        const auto kv = SplitTokens(token, ":");
        if (kv.size() != 2) return fail("add feature format");
        int32_t index = 0;
        double value = 0.0;
        if (!ParseInt32(kv[0], &index) || !ParseDouble(kv[1], &value)) {
          return fail("add feature value");
        }
        if (index <= prev) return fail("add feature indices not increasing");
        prev = index;
        op.indices.push_back(index);
        op.values.push_back(value);
      }
    } else if (word == "relabel") {
      op.kind = DeltaOp::Kind::kRelabel;
      if (!(in >> op.row >> op.old_label >> op.new_label)) {
        return fail(StrPrintf("relabel %zu", i));
      }
      if (op.row < 0) return fail("relabel row negative");
      if (op.old_label < 0 || op.old_label >= delta.num_classes ||
          op.new_label < 0 || op.new_label >= delta.num_classes ||
          op.old_label == op.new_label) {
        return fail("relabel labels out of range");
      }
    } else {
      return fail("unknown op " + word);
    }
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

Status SaveDelta(const DatasetDelta& delta, const std::string& path) {
  return WriteFile(SerializeDelta(delta), path);
}

Result<DatasetDelta> LoadDelta(const std::string& path) {
  GMP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseDelta(text);
}

std::vector<int> AffectedClasses(const DatasetDelta& delta) {
  std::vector<int> classes;
  for (const DeltaOp& op : delta.ops) {
    if (op.kind == DeltaOp::Kind::kAdd) {
      classes.push_back(op.label);
    } else {
      classes.push_back(op.old_label);
      classes.push_back(op.new_label);
    }
  }
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  return classes;
}

Result<Dataset> ApplyDelta(const Dataset& base, const DatasetDelta& delta) {
  if (delta.num_classes != base.num_classes()) {
    return Status::InvalidArgument(StrPrintf(
        "delta num_classes %d does not match base %d", delta.num_classes,
        base.num_classes()));
  }
  const uint64_t base_fp = DatasetFingerprint(base);
  if (delta.base_fingerprint != base_fp) {
    return Status::InvalidArgument(StrPrintf(
        "delta base fingerprint %llu does not match dataset %llu",
        static_cast<unsigned long long>(delta.base_fingerprint),
        static_cast<unsigned long long>(base_fp)));
  }

  std::vector<int32_t> labels = base.labels();
  CsrBuilder builder(base.dim());
  const CsrMatrix& features = base.features();
  for (int64_t r = 0; r < features.rows(); ++r) {
    builder.AddRow(features.RowIndices(r), features.RowValues(r));
  }
  for (const DeltaOp& op : delta.ops) {
    if (op.kind == DeltaOp::Kind::kAdd) {
      for (int32_t index : op.indices) {
        if (index >= base.dim()) {
          return Status::InvalidArgument(StrPrintf(
              "added row feature index %d exceeds base dim %lld", index,
              static_cast<long long>(base.dim())));
        }
      }
      builder.AddRow(op.indices, op.values);
      labels.push_back(op.label);
    } else {
      if (op.row >= static_cast<int32_t>(labels.size())) {
        return Status::InvalidArgument(
            StrPrintf("relabel row %d out of range", op.row));
      }
      if (labels[static_cast<size_t>(op.row)] != op.old_label) {
        return Status::InvalidArgument(StrPrintf(
            "relabel row %d has label %d, delta expected %d", op.row,
            labels[static_cast<size_t>(op.row)], op.old_label));
      }
      labels[static_cast<size_t>(op.row)] = op.new_label;
    }
  }
  GMP_ASSIGN_OR_RETURN(CsrMatrix merged, builder.Finish());
  return Dataset::Create(std::move(merged), std::move(labels),
                         base.num_classes(), base.name() + "+delta");
}

}  // namespace gmpsvm::online
