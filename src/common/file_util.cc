#include "common/file_util.h"

#include <fstream>
#include <sstream>

namespace gmpsvm {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& text, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << text;
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace gmpsvm
