#include "data/libsvm_io.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/string_util.h"

namespace gmpsvm {
namespace {

Result<LibsvmFile> ParseLines(std::istream& in, int64_t min_dim,
                              const std::string& name) {
  CsrBuilder builder(0);  // columns fixed after the scan; rebuild at the end
  std::vector<std::vector<int32_t>> row_indices;
  std::vector<std::vector<double>> row_values;
  std::vector<int32_t> raw_labels;
  int64_t max_index = 0;

  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view text = StripWhitespace(line);
    if (text.empty() || text.front() == '#') continue;
    const auto tokens = SplitTokens(text, " \t");
    // First token: label.
    int32_t label = 0;
    {
      const auto tok = tokens[0];
      double label_value = 0;
      // Labels may be written as floats ("1.0"); parse as double and round.
      char* end = nullptr;
      std::string buf(tok);
      errno = 0;
      label_value = std::strtod(buf.c_str(), &end);
      if (end != buf.c_str() + buf.size() || errno != 0) {
        return Status::IoError(
            StrPrintf("line %lld: bad label '%s'", static_cast<long long>(line_no),
                      buf.c_str()));
      }
      // Rounding must land in int32 range: a non-finite or huge label would
      // make the conversion below undefined.
      const double rounded = std::round(label_value);
      if (!std::isfinite(label_value) ||
          rounded < static_cast<double>(std::numeric_limits<int32_t>::min()) ||
          rounded > static_cast<double>(std::numeric_limits<int32_t>::max())) {
        return Status::IoError(StrPrintf(
            "line %lld: label '%s' is not finite or exceeds the 32-bit range",
            static_cast<long long>(line_no), buf.c_str()));
      }
      label = static_cast<int32_t>(label_value >= 0 ? label_value + 0.5
                                                    : label_value - 0.5);
    }
    std::vector<int32_t> indices;
    std::vector<double> values;
    int32_t prev_index = 0;
    for (size_t t = 1; t < tokens.size(); ++t) {
      const auto kv = SplitTokens(tokens[t], ":");
      if (kv.size() != 2) {
        return Status::IoError(StrPrintf("line %lld: bad feature token",
                                         static_cast<long long>(line_no)));
      }
      int32_t index = 0;
      auto [iptr, iec] = std::from_chars(kv[0].data(), kv[0].data() + kv[0].size(),
                                         index);
      if (iec != std::errc() || iptr != kv[0].data() + kv[0].size() || index <= 0 ||
          index <= prev_index) {
        return Status::IoError(
            StrPrintf("line %lld: bad or unsorted feature index",
                      static_cast<long long>(line_no)));
      }
      prev_index = index;
      std::string vbuf(kv[1]);
      char* vend = nullptr;
      errno = 0;
      const double value = std::strtod(vbuf.c_str(), &vend);
      if (vend != vbuf.c_str() + vbuf.size() || errno != 0) {
        return Status::IoError(StrPrintf("line %lld: bad feature value",
                                         static_cast<long long>(line_no)));
      }
      if (!std::isfinite(value)) {
        return Status::IoError(
            StrPrintf("line %lld: feature %d value '%s' is not finite",
                      static_cast<long long>(line_no), index, vbuf.c_str()));
      }
      indices.push_back(index - 1);  // to 0-based
      values.push_back(value);
      max_index = std::max<int64_t>(max_index, index);
    }
    raw_labels.push_back(label);
    row_indices.push_back(std::move(indices));
    row_values.push_back(std::move(values));
  }

  const int64_t dim = std::max(max_index, min_dim);
  CsrBuilder final_builder(dim);
  for (size_t r = 0; r < row_indices.size(); ++r) {
    final_builder.AddRow(row_indices[r], row_values[r]);
  }
  GMP_ASSIGN_OR_RETURN(CsrMatrix features, final_builder.Finish());

  // Remap labels to [0, k) in order of first appearance — LibSVM's rule.
  std::vector<int32_t> label_values;
  std::map<int32_t, int32_t> label_map;
  std::vector<int32_t> labels;
  labels.reserve(raw_labels.size());
  for (int32_t raw : raw_labels) {
    auto it = label_map.find(raw);
    if (it == label_map.end()) {
      it = label_map.emplace(raw, static_cast<int32_t>(label_values.size())).first;
      label_values.push_back(raw);
    }
    labels.push_back(it->second);
  }

  GMP_ASSIGN_OR_RETURN(Dataset dataset,
                       Dataset::Create(std::move(features), std::move(labels),
                                       static_cast<int>(label_values.size()), name));
  return LibsvmFile{std::move(dataset), std::move(label_values)};
}

}  // namespace

Result<LibsvmFile> ReadLibsvmFile(const std::string& path, int64_t min_dim) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ParseLines(in, min_dim, path);
}

Result<LibsvmFile> ParseLibsvm(const std::string& content, int64_t min_dim,
                               const std::string& name) {
  std::istringstream in(content);
  return ParseLines(in, min_dim, name);
}

Status WriteLibsvmFile(const std::string& path, const Dataset& dataset,
                       const std::vector<int32_t>& label_values) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const CsrMatrix& x = dataset.features();
  for (int64_t r = 0; r < x.rows(); ++r) {
    const int32_t cls = dataset.labels()[static_cast<size_t>(r)];
    const int32_t label =
        label_values.empty() ? cls : label_values[static_cast<size_t>(cls)];
    out << label;
    const auto idx = x.RowIndices(r);
    const auto val = x.RowValues(r);
    for (size_t p = 0; p < idx.size(); ++p) {
      out << ' ' << (idx[p] + 1) << ':' << val[p];
    }
    out << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace gmpsvm
